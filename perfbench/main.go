// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload on inputs generated from a seed,
// drives the engine through its public surfaces (Engine.Open/Fit,
// Cluster.Fit, the serve HTTP routes), checks every output against a
// bit-exact reference, and prints one JSON result line:
//
//	perfbench --workload train --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With
// --trace 1 the run also walks the layer ladder, repeats the
// measurement with benchmark-side spans around every call into a
// layer, writes those spans and a self-time report under
// .bench_build/traces, and the result holds the per-layer metrics.
// See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one reported metric.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports; each workload
// gives them the meaning README.md states.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"time_to_model_s", "s"},
	{"train_gbps", "GB/s"},
	{"mem_peak_mb", "MB"},
	{"op_p50_ms", "ms"},
}

// perLayer are the metrics every traced run reports. A workload must
// measure everyTraced and its own layers; the others read 0.
var perLayer = []metricSpec{
	{"mem.read_gbps", "GB/s"},
	{"mem.dot_gflops", "GFLOP/s"},
	{"store.open_s", "s"},
	{"store.warm_gbps", "GB/s"},
	{"store.warm_eff", "ratio"},
	{"store.cold_gbps", "GB/s"},
	{"store.pagein_mb", "MB"},
	{"store.major_faults", "count"},
	{"exec.scan_gbps", "GB/s"},
	{"exec.scan_eff", "ratio"},
	{"kernel.grad_gbps", "GB/s"},
	{"kernel.grad_eff", "ratio"},
	{"kernel.assign_gflops", "GFLOP/s"},
	{"kernel.knn_gflops", "GFLOP/s"},
	{"optimize.iters", "count"},
	{"optimize.evals", "count"},
	{"optimize.evals_per_iter", "ratio"},
	{"core.logreg_fit_s", "s"},
	{"core.kmeans_fit_s", "s"},
	{"core.outofcore_fit_s", "s"},
	{"core.prefit_s", "s"},
	{"core.kmeans_prefit_s", "s"},
	{"core.postfit_s", "s"},
	{"core.scratch_mb", "MB"},
	{"serve.predict_ms", "ms"},
	{"serve.batch_rows", "rows"},
	{"serve.nonpredict_ms", "ms"},
	{"serve.digits_p50_ms", "ms"},
	{"serve.tail_ms", "ms"},
	{"serve.tail_pct", "%"},
	{"serve.knn_max_qps", "1/s"},
	{"loadgen.late_ms", "ms"},
	{"dist.rounds", "count"},
	{"dist.bytes_per_round", "B"},
	{"dist.round_ms", "ms"},
	{"dist.straggler_s", "s"},
	{"dist.overhead_frac", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
}

// everyTraced are the per-layer metrics of the layer ladder and the
// tracing overhead, which every traced run measures.
var everyTraced = []string{
	"mem.read_gbps", "mem.dot_gflops", "store.open_s", "store.warm_gbps", "store.warm_eff",
	"store.cold_gbps", "exec.scan_gbps", "exec.scan_eff", "kernel.knn_gflops", "obs.trace_overhead_frac",
}

// workload is one workload's function and the per-layer metrics,
// beyond everyTraced, its traced run must measure.
type workload struct {
	run    func(*bench) error
	layers []string
}

var workloads = map[string]workload{
	"train": {trainWorkload, []string{
		"store.pagein_mb", "store.major_faults", "kernel.grad_gbps", "kernel.grad_eff", "kernel.assign_gflops",
		"optimize.iters", "optimize.evals", "optimize.evals_per_iter", "core.logreg_fit_s", "core.kmeans_fit_s",
		"core.outofcore_fit_s", "core.prefit_s", "core.kmeans_prefit_s", "core.postfit_s",
		"dist.rounds", "dist.bytes_per_round", "dist.round_ms", "dist.straggler_s", "dist.overhead_frac",
	}},
	"serve": {serveWorkload, []string{
		"core.scratch_mb", "serve.predict_ms", "serve.batch_rows", "serve.nonpredict_ms", "serve.digits_p50_ms",
		"serve.tail_ms", "serve.tail_pct", "serve.knn_max_qps", "loadgen.late_ms",
	}},
}

// checkLayers fails a traced run when one of the workload's metrics
// was not measured or is not positive; a _frac metric is a relative
// difference and may take either sign.
func checkLayers(name string, w workload, layer map[string]float64) error {
	for _, m := range slices.Concat(everyTraced, w.layers) {
		v, ok := layer[m]
		if !ok || !(v > 0 || strings.HasSuffix(m, "_frac")) {
			return fmt.Errorf("workload %s did not measure %s (%v)", name, m, v)
		}
	}
	return nil
}

// bench is one run's state.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	in       *inputs
	tr       *tracer
	root     int // the run's root span

	attempted, failed int64
	mismatches        []string

	e2e   map[string]float64
	layer map[string]float64
	ratio []ratioLine // efficiencies with their bases, for the report
}

// ratioLine is one efficiency and the base it is measured against.
type ratioLine struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Num   string  `json:"numerator"`
	Base  string  `json:"base"`
	BaseV float64 `json:"base_value"`
}

// setRatio records layer[name] = layer[num] / layer[base].
func (b *bench) setRatio(name, num, base string) {
	v := 0.0
	if b.layer[base] != 0 {
		v = b.layer[num] / b.layer[base]
	}
	b.layer[name] = v
	b.ratio = append(b.ratio, ratioLine{name, v, num, base, b.layer[base]})
}

// op counts one attempted operation; a non-empty mismatch marks it
// failed and fails the run's output check.
func (b *bench) op(mismatch string) {
	b.attempted++
	if mismatch != "" {
		b.failed++
		b.mismatches = append(b.mismatches, mismatch)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	prepare := flag.Bool("prepare", false, "only generate the seed's inputs (the run's child process)")
	flag.Parse()
	var err error
	if *prepare {
		var in *inputs
		if in, err = newInputs(*seed); err == nil {
			err = in.prepare()
		}
	} else {
		err = run(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool) error {
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d, want >= 1", seconds)
	}
	in, err := newInputs(seed)
	if err != nil {
		return err
	}
	if !in.ready() {
		// Generation and the reference fits run in a child process, so
		// the measuring process never holds their heap.
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		cmd := exec.Command(exe, "--prepare", "--seed", strconv.FormatInt(seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("preparing inputs: %w", err)
		}
	}
	b := &bench{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		traced: traced, in: in, tr: newTracer(traced),
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if traced {
		if err := ladder(b); err != nil {
			return fmt.Errorf("layer ladder: %w", err)
		}
	}
	if err := w.run(b); err != nil {
		return err
	}
	b.tr.on.Store(false)
	res := resultOut{Correct: len(b.mismatches) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricOut{}}
	specs, vals := endToEnd, b.e2e
	if traced {
		specs, vals = perLayer, b.layer
		if err := b.writeReport(); err != nil {
			return err
		}
		if err := checkLayers(workload, w, b.layer); err != nil {
			return err
		}
	}
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok && !traced {
			return fmt.Errorf("workload %s did not measure %s", workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metricOut{v, m.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	for _, m := range b.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", m)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d output checks failed", len(b.mismatches))
	}
	return nil
}

// writeReport writes the traced run's spans and a self-time report
// (per span name: count, total and self seconds; every efficiency
// with its base) under .bench_build/traces, and prints the self-time
// table to stderr.
func (b *bench) writeReport() error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err := b.tr.write(stem + ".spans.json"); err != nil {
		return err
	}
	spans := b.tr.snapshot()
	self := selfByName(spans)
	type row struct {
		Name   string  `json:"name"`
		Count  int     `json:"count"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	byName := map[string]*row{}
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &row{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.TotalS += float64(s.dur()) / 1e9
	}
	rows := make([]row, 0, len(byName))
	for name, r := range byName {
		r.SelfS = self[name]
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	fmt.Fprintf(os.Stderr, "%-24s %8s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "%-24s %8d %10.4f %10.4f\n", r.Name, r.Count, r.TotalS, r.SelfS)
	}
	for _, r := range b.ratio {
		fmt.Fprintf(os.Stderr, "%s = %.4f (%s / %s = %.4f)\n", r.Name, r.Value, r.Num, r.Base, r.BaseV)
	}
	rep, err := json.MarshalIndent(map[string]any{
		"workload": b.workload, "seed": b.seed, "spans": rows, "ratios": b.ratio, "metrics": b.layer,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".report.json", rep, 0o644)
}
