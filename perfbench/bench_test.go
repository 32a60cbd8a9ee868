package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"m3"
	"m3/internal/obs"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "fit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "iter", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "iter", Start: 30, End: 60},   // overlaps 2: union 10..60
		{ID: 4, Parent: 1, Name: "evict", Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 2, Name: "inner", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if got := byName["iter"]; math.Abs(got-55e-9) > 1e-15 {
		t.Fatalf("iter self %v s, want 55ns", got)
	}
}

func TestCoveredMergesDisjointAndNested(t *testing.T) {
	iv := [][2]int64{{50, 60}, {0, 10}, {5, 8}, {20, 30}, {25, 35}}
	if got := covered(iv, 0, 100); got != 10+15+10 {
		t.Fatalf("covered = %d, want 35", got)
	}
	if got := covered(iv, 7, 27); got != 3+7 {
		t.Fatalf("clipped covered = %d, want 10", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Fatalf("empty covered = %d", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", 0)
	tr.end(id, 1)
	tr.add("y", 0, time.Now(), time.Now(), 1)
	if id != 0 || len(tr.snapshot()) != 0 {
		t.Fatalf("disabled tracer recorded spans")
	}
	tr.on.Store(true)
	p := tr.begin("p", 0)
	c := tr.begin("c", p)
	tr.end(c, 7)
	if got := tr.snapshot(); len(got) != 1 || got[0].Parent != p || got[0].Count != 7 {
		t.Fatalf("open parent or child wrong: %+v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {99, 0.9, false}, {100, 0.9, true},
		{19, 0.5, false}, {20, 0.5, true},
	}
	for _, c := range cases {
		if got := tailOK(c.n, c.q, 10); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if q := highestTail(1500, 10); q != 0.99 {
		t.Errorf("highestTail(1500) = %v", q)
	}
	if q := highestTail(150, 10); q != 0.9 {
		t.Errorf("highestTail(150) = %v", q)
	}
	if q := highestTail(5, 10); q != 0 {
		t.Errorf("highestTail(5) = %v", q)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max = %v", got)
	}
	if xs[0] != 4 {
		t.Fatalf("quantile sorted its input")
	}
}

func TestPoissonScheduleIsSeededAndOpenLoop(t *testing.T) {
	a := poissonSchedule(7, 400, 5*time.Second)
	b := poissonSchedule(7, 400, 5*time.Second)
	c := poissonSchedule(8, 400, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 5 s at 400/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 5*time.Second {
			t.Fatalf("schedule not increasing within the window at %d", i)
		}
	}
}

// evictTestFile writes a synced file of n float64s inside the package
// directory (a real disk, where page-cache eviction works) and maps it.
func evictTestFile(t *testing.T, n int) ([]float64, string) {
	dir, err := os.MkdirTemp(".", "evict-test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "table.bin")
	buf := make([]byte, n*8)
	for i := range buf {
		buf[i] = byte(i)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, closeFn, err := m3.MapFloat64(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeFn() })
	return data, path
}

func TestEvictorDropsMappedPages(t *testing.T) {
	data, path := evictTestFile(t, 4<<20) // 32 MiB
	ev, err := newEvictor(data, path)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.close()
	sumParallel(data, 2)
	if res, err := ev.resident(); err != nil || res < ev.pages()/2 {
		t.Fatalf("after a full read %d of %d pages resident (err %v)", res, ev.pages(), err)
	}
	io0, err := obs.ReadProc()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.evict()
	if err != nil {
		t.Fatal(err)
	}
	if float64(res) > maxResidentFrac*float64(ev.pages()) {
		t.Fatalf("%d of %d pages resident after evict", res, ev.pages())
	}
	sumParallel(data, 2)
	io1, _ := obs.ReadProc()
	if d := io1.Sub(io0); d.ReadBytes < int64(len(data)*8)/2 {
		t.Fatalf("re-read after evict paged in only %d bytes", d.ReadBytes)
	}
}

func TestCheckEvictedFailsAboveOnePercent(t *testing.T) {
	if err := checkEvicted(10, 1000); err != nil {
		t.Fatalf("1%% resident rejected: %v", err)
	}
	if err := checkEvicted(11, 1000); err == nil {
		t.Fatal("1.1% resident accepted")
	}
	if err := checkEvicted(0, 0); err == nil {
		t.Fatal("empty range accepted")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the
// metrics and workloads the program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	reported := map[string]bool{}
	for _, m := range perLayer {
		reported[m.name] = true
	}
	for name, w := range workloads {
		for _, m := range slices.Concat(everyTraced, w.layers) {
			if !reported[m] {
				t.Errorf("workload %s must measure %s, which is not a per-layer metric", name, m)
			}
		}
	}
}

func TestCheckLayersNeedsEveryMetricPositive(t *testing.T) {
	w := workload{layers: []string{"dist.rounds", "dist.overhead_frac"}}
	layer := map[string]float64{"dist.rounds": 17, "dist.overhead_frac": -0.2}
	for _, m := range everyTraced {
		layer[m] = 1
	}
	if err := checkLayers("w", w, layer); err != nil {
		t.Fatalf("complete layers rejected: %v", err)
	}
	layer["dist.rounds"] = 0
	if err := checkLayers("w", w, layer); err == nil {
		t.Fatal("a zero count accepted")
	}
	layer["dist.rounds"] = 17
	delete(layer, "mem.read_gbps")
	if err := checkLayers("w", w, layer); err == nil {
		t.Fatal("a missing ladder metric accepted")
	}
}
