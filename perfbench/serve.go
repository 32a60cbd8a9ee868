package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"m3"
	"m3/internal/serve"
)

const (
	// setupReps is the set-ups per run; setup_s is their median.
	setupReps = 9
	// digitsTrainRows is the slice of the table the served pipeline
	// is fitted on.
	digitsTrainRows = 16384
	// serveConns is the load generator's persistent connection count
	// (nproc on the reference box).
	serveConns = 2
	// Fixed open-loop rates (Poisson arrivals), requests per second,
	// and the length of the traced run's digits phase.
	digitsRate = 400.0
	knnRate    = 60.0
	digitsDur  = 5 * time.Second
	// Query pools: rows outside the k-NN reference window, cycled.
	digitsPool = 256
	knnPool    = 64
	// The knee sweep steps the nn rate up from knnRate by kneeStepQPS,
	// kneeStep per step, while the tail stays within knnLimitMs. A
	// knee beyond kneeSweep of stepping fails the run.
	knnLimitMs  = 100.0
	kneeStepQPS = 30.0
	kneeStep    = 3500 * time.Millisecond
	kneeSweep   = 75 * time.Second
)

// spanModel wraps a served model so every PredictMatrix the batcher
// makes becomes a span; it changes no result.
type spanModel struct {
	m3.Model
	b      *bench
	parent *atomic.Int64 // the current phase span, set between phases
}

func (s spanModel) PredictMatrix(x *m3.Matrix) ([]float64, error) {
	id := s.b.tr.begin("serve.predict", int(s.parent.Load()))
	out, err := s.Model.PredictMatrix(x)
	s.b.tr.end(id, int64(x.Rows()))
	return out, err
}

// serveEnv is a running in-process server with its two models: the
// saved scale→logreg pipeline "digits" and the k-NN model "nn" over a
// mapped reference table.
type serveEnv struct {
	eng     *m3.Engine
	tbl     *m3.Table
	reg     *serve.Registry
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	digits  m3.Model // the locally fitted models, for output checks
	nn      m3.Model
	fitWall float64
	passes  int
	scratch int64        // Engine.Stats scratch bytes of the pipeline fit
	phase   atomic.Int64 // parent span of predict spans
}

func (e *serveEnv) close() {
	if e.srv != nil {
		e.srv.Drain()
	}
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.hs.Shutdown(ctx)
		cancel()
		<-e.served
	}
	if e.reg != nil {
		e.reg.Close()
	}
	e.eng.Close()
}

// startServe fits, saves and loads the digits pipeline, fits the nn
// model and starts the server on loopback.
func (b *bench) startServe(parent int) (*serveEnv, error) {
	e := &serveEnv{eng: m3.New(m3.Config{Mode: m3.MemoryMapped, TempDir: b.in.dir})}
	fail := func(err error) (*serveEnv, error) { e.close(); return nil, err }
	sp := b.tr.begin("store.open", parent)
	tbl, err := e.eng.Open(b.in.table)
	b.tr.end(sp, 0)
	if err != nil {
		return fail(err)
	}
	e.tbl = tbl
	ctx := context.Background()
	evals := 0
	pipe := m3.Pipeline{
		Stages: []m3.Transformer{m3.StandardScaler{}},
		Estimator: logregEstimator(0, func(i m3.IterInfo) bool {
			evals = i.Evaluations
			return true
		}),
	}
	train := &m3.Table{X: tbl.X.RowWindow(0, digitsTrainRows), Labels: tbl.Labels[:digitsTrainRows], Mapped: tbl.Mapped, Path: tbl.Path}
	sp = b.tr.begin("core.pipeline_fit", parent)
	t := time.Now()
	digits, err := e.eng.Fit(ctx, pipe, train)
	e.fitWall = time.Since(t).Seconds()
	b.tr.end(sp, int64(evals))
	if err != nil {
		return fail(err)
	}
	e.digits, e.passes, e.scratch = digits, evals+len(pipe.Stages), e.eng.Stats().Bytes
	path := filepath.Join(b.in.dir, "digits-"+strconv.FormatInt(time.Now().UnixNano(), 10)+".model")
	defer os.Remove(path)
	if err := digits.Save(path); err != nil {
		return fail(err)
	}
	loaded, info, err := m3.Load(path)
	if err != nil {
		return fail(err)
	}
	refs := &m3.Table{X: tbl.X.RowWindow(0, knnRefs), Labels: tbl.Labels[:knnRefs], Mapped: tbl.Mapped, Path: tbl.Path}
	nn, err := e.eng.Fit(ctx, m3.KNNClassifier{K: knnK, Classes: 10}, refs)
	if err != nil {
		return fail(err)
	}
	e.nn = nn
	var served, nnServed m3.Model = loaded, nn
	if b.traced {
		served = spanModel{loaded, b, &e.phase}
		nnServed = spanModel{nn, b, &e.phase}
	}
	e.reg = serve.NewRegistry()
	e.reg.Set("digits", serve.NewSnapshot(served, info, path, nil))
	e.reg.Set("nn", serve.NewSnapshot(nnServed, m3.ModelInfo{Kind: "knn", InputCols: tbl.X.Cols(), Classes: 10}, "", nil))
	// m3serve's defaults: 64-row batches, 1 ms flush deadline, 4096
	// queued rows before 429.
	e.srv = serve.NewServer(e.reg, serve.Config{BatchSize: 64, BatchDelay: time.Millisecond, QueueRows: 4096})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	return e, nil
}

// setupServe times startServe setupReps times, keeps the last server
// and records setup_s, time_to_model_s (the pipeline fit), train_gbps
// (its slice × passes ÷ fit time) and the fit's scratch bytes.
func (b *bench) setupServe() (*serveEnv, error) {
	if err := warmPageCache(b.in.table); err != nil {
		return nil, err
	}
	var setup, fit, gbps, scratch []float64
	var env *serveEnv
	for r := 0; r < setupReps; r++ {
		if env != nil {
			env.close()
		}
		id := b.tr.begin("setup", b.root)
		t := time.Now()
		e, err := b.startServe(id)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
		b.tr.end(id, 0)
		fit = append(fit, e.fitWall)
		gbps = append(gbps, float64(digitsTrainRows)*m3.InfimnistFeatures*8*float64(e.passes)/e.fitWall/1e9)
		scratch = append(scratch, float64(e.scratch)/1e6)
		env = e
	}
	b.e2e["setup_s"] = median(setup)
	b.e2e["time_to_model_s"] = median(fit)
	b.e2e["train_gbps"] = median(gbps)
	b.layer["core.scratch_mb"] = median(scratch)
	return env, nil
}

// target builds a model's request pool from table rows outside the
// k-NN reference window, chosen by seed, with each row's local
// prediction as the expected answer.
func (b *bench) target(env *serveEnv, name string, local m3.Model, pool int) (loadTarget, error) {
	rng := rand.New(rand.NewSource(b.seed))
	cols := env.tbl.X.Cols()
	q := m3.NewMatrix(pool, cols)
	bodies := make([][]byte, pool)
	for i := 0; i < pool; i++ {
		row := env.tbl.X.RawRow(knnRefs + knnQueries + rng.Intn(tableRows-knnRefs-knnQueries))
		copy(q.RawRow(i), row)
		body, err := json.Marshal(map[string][][]float64{"rows": {row}})
		if err != nil {
			return loadTarget{}, err
		}
		bodies[i] = body
	}
	expect, err := local.PredictMatrix(q)
	if err != nil {
		return loadTarget{}, err
	}
	return loadTarget{url: env.base + "/models/" + name + "/predict", bodies: bodies, expect: expect}, nil
}

// servePhase runs one open-loop phase at rate for dur, counts its
// requests as operations and returns the phase's span id.
func (b *bench) servePhase(env *serveEnv, tgt loadTarget, rate float64, dur time.Duration, seed int64) (loadResult, int) {
	clients := newClients(serveConns)
	defer closeClients(clients)
	phase := b.tr.begin("serve.phase", b.root)
	env.phase.Store(int64(phase))
	res := openLoop(context.Background(), clients, poissonSchedule(seed, rate, dur), tgt)
	for _, s := range res.spans {
		b.tr.add("serve.request", phase, s.due, s.done, 1)
	}
	b.tr.end(phase, int64(res.sent))
	b.attempted += int64(res.sent)
	b.failed += int64(res.refused + res.wrong)
	if res.wrong > 0 {
		b.mismatches = append(b.mismatches, fmt.Sprintf("%s: %d responses differ from the local PredictMatrix", tgt.url, res.wrong))
	}
	return res, phase
}

// serveWorkload sets up the server with both models and drives the
// k-NN model nn at a fixed open-loop rate: exec and the distance
// kernels on tiny batches under latency pressure. A traced run then
// drives the digits pipeline at its own rate, a path dominated by
// decode, queueing and HTTP, and steps the nn rate up to the first
// rate that is not sustained.
func serveWorkload(b *bench) error {
	env, err := b.setupServe()
	if err != nil {
		return err
	}
	defer env.close()
	nn, err := b.target(env, "nn", env.nn, knnPool)
	if err != nil {
		return err
	}
	if !b.traced {
		mem := startMemSampler(5 * time.Millisecond)
		res, _ := b.servePhase(env, nn, knnRate, b.seconds, b.seed)
		b.e2e["mem_peak_mb"] = float64(mem.finish()) / 1e6
		b.e2e["op_p50_ms"] = median(res.latMs)
		return nil
	}
	digits, err := b.target(env, "digits", env.digits, digitsPool)
	if err != nil {
		return err
	}
	b.tr.on.Store(false)
	base, _ := b.servePhase(env, nn, knnRate, b.seconds/2, b.seed)
	b.tr.on.Store(true)
	b.root = b.tr.begin("measure", 0)
	res, nnPhase := b.servePhase(env, nn, knnRate, b.seconds/2, b.seed)
	dres, digitsPhase := b.servePhase(env, digits, digitsRate, digitsDur, b.seed)
	b.tr.end(b.root, 0)
	b.tr.on.Store(false)
	b.layer["obs.trace_overhead_frac"] = median(res.latMs)/median(base.latMs) - 1

	predMs, rows, _ := b.batches(res, nnPhase)
	b.layer["serve.predict_ms"] = median(predMs)
	b.layer["serve.batch_rows"] = mean(rows)
	if q := highestTail(len(res.latMs), 10); q > 0 {
		b.layer["serve.tail_ms"] = quantile(res.latMs, q)
		b.layer["serve.tail_pct"] = 100 * q
	}
	if q := highestTail(len(res.lateMs), 10); q > 0 {
		b.layer["loadgen.late_ms"] = quantile(res.lateMs, q)
	}
	_, _, nonpred := b.batches(dres, digitsPhase)
	b.layer["serve.nonpredict_ms"] = median(nonpred)
	b.layer["serve.digits_p50_ms"] = median(dres.latMs)
	return b.knee(env, nn)
}

// batches returns, for one traced phase, each predict batch's time
// and rows, and each request's latency minus the predict time of the
// batch that answered it (decode, queue, batch wait, encode, HTTP).
func (b *bench) batches(res loadResult, phase int) (predMs, rows, nonpred []float64) {
	var preds []span
	for _, p := range b.tr.named("serve.predict") {
		if p.Parent == phase {
			preds = append(preds, p)
		}
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i].End < preds[j].End })
	for _, p := range preds {
		predMs = append(predMs, float64(p.dur())/1e6)
		rows = append(rows, float64(p.Count))
	}
	for _, s := range res.spans {
		due, done := s.due.Sub(b.tr.t0).Nanoseconds(), s.done.Sub(b.tr.t0).Nanoseconds()
		// The batch that answered a request is the last one to end
		// before its response and after it was due.
		i := sort.Search(len(preds), func(i int) bool { return preds[i].End > done }) - 1
		if i >= 0 && preds[i].Start >= due {
			nonpred = append(nonpred, float64(done-due-preds[i].dur())/1e6)
		}
	}
	return predMs, rows, nonpred
}

// knee steps the nn rate up from knnRate until a step is not
// sustained and records the last sustained rate.
func (b *bench) knee(env *serveEnv, nn loadTarget) error {
	best, start := 0.0, time.Now()
	for step := 0; ; step++ {
		if time.Since(start) > kneeSweep {
			return fmt.Errorf("serve: %.0f req/s still sustained after %v of sweep", best, kneeSweep)
		}
		rate := knnRate + kneeStepQPS*float64(step)
		res, _ := b.servePhase(env, nn, rate, kneeStep, b.seed+int64(step+1))
		ok := sustained(res)
		fmt.Fprintf(os.Stderr, "perfbench: knee step %.0f req/s: sustained %v\n", rate, ok)
		if !ok {
			break
		}
		best = rate
	}
	b.layer["serve.knn_max_qps"] = best
	return nil
}

// sustained reports whether a phase met the knee criteria: nothing
// refused, the highest supported tail percentile within knnLimitMs,
// and no growing backlog (the last quarter's median latency at most
// twice the first quarter's plus 20 ms).
func sustained(res loadResult) bool {
	n := len(res.latMs)
	q := highestTail(n, 10)
	if n < 8 || q == 0 || res.refused > 0 || quantile(res.latMs, q) > knnLimitMs {
		return false
	}
	first, last := median(res.latMs[:n/4]), median(res.latMs[n-n/4:])
	return last <= 2*first+20
}
