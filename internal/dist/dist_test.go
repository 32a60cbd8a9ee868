package dist

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"m3/internal/core"
	"m3/internal/dataset"
	"m3/internal/exec"
	"m3/internal/mat"
	"m3/internal/ml/bayes"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/linreg"
	"m3/internal/ml/logreg"
	"m3/internal/ml/pca"
	"m3/internal/ml/preprocess"
)

// The root package registers its fitted stages for the wire; these
// tests push the inner scalers directly.
func init() {
	gob.Register(&preprocess.StandardScaler{})
	gob.Register(&preprocess.MinMaxScaler{})
}

// writeTestData writes a deterministic labelled dataset file and
// returns its path.
func writeTestData(t testing.TB, n, d, classes int) string {
	t.Helper()
	path := t.TempDir() + "/data.m3"
	w, err := dataset.Create(path, int64(n), int64(d), true)
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / float64(1<<53)
	}
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = next()*4 - 2
		}
		label := float64(i % classes)
		if err := w.WriteRow(row, label); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openLocal loads the dataset onto the heap for the reference fits.
func openLocal(t *testing.T, path string) (*mat.Dense, []float64) {
	t.Helper()
	eng := core.New(core.Config{Mode: core.InMemory, Workers: 2})
	t.Cleanup(func() { eng.Close() })
	tab, err := eng.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return tab.X, tab.Labels
}

// startWorkers launches k in-process workers on ephemeral ports and
// returns them with their addresses.
func startWorkers(t *testing.T, k int, cfg WorkerConfig) ([]*Worker, []string) {
	t.Helper()
	workers := make([]*Worker, k)
	addrs := make([]string, k)
	for i := range workers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		w := NewWorker(cfg)
		workers[i] = w
		go w.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			w.Shutdown(ctx)
		})
	}
	return workers, addrs
}

// startCluster launches k in-process workers and returns a
// coordinator dialed to all of them.
func startCluster(t *testing.T, k int, cfg WorkerConfig) *Coordinator {
	t.Helper()
	_, addrs := startWorkers(t, k, cfg)
	c, err := DialWorkers(context.Background(), addrs, Options{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// openSharded opens path on the cluster as a sharded dataset.
func openSharded(t *testing.T, c *Coordinator, path string) *core.Dataset {
	t.Helper()
	ds, err := c.Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// eqFloats asserts bit-exact equality of two float slices.
func eqFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// eqBits asserts bit-exact equality of two floats.
func eqBits(t *testing.T, name string, got, want float64) {
	t.Helper()
	eqFloats(t, name, []float64{got}, []float64{want})
}

func TestPlanShardsAlignment(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {255, 4}, {256, 4}, {1000, 3}, {1100, 3}, {1 << 16, 7}, {300, 64},
	} {
		shards, err := PlanShards(tc.n, tc.k)
		if err != nil {
			t.Fatalf("PlanShards(%d, %d): %v", tc.n, tc.k, err)
		}
		gr := exec.GroupRows(tc.n)
		if len(shards) > tc.k {
			t.Fatalf("PlanShards(%d, %d): %d shards", tc.n, tc.k, len(shards))
		}
		prev := 0
		for i, s := range shards {
			if s.Lo != prev {
				t.Fatalf("shard %d starts at %d, want %d", i, s.Lo, prev)
			}
			if s.Lo%gr != 0 {
				t.Fatalf("shard %d start %d not group-aligned (gr=%d)", i, s.Lo, gr)
			}
			if s.Rows() <= 0 {
				t.Fatalf("shard %d empty: %+v", i, s)
			}
			prev = s.Hi
		}
		if prev != tc.n {
			t.Fatalf("shards cover [0, %d), want [0, %d)", prev, tc.n)
		}
	}
	if _, err := PlanShards(0, 2); err == nil {
		t.Fatal("PlanShards(0, 2) should fail")
	}
}

func TestLogisticParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	x, labels := openLocal(t, path)
	want, err := logreg.Train(context.Background(), x, preprocess.BinaryLabels(labels, 3), logreg.Options{MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []core.Mode{core.InMemory, core.MemoryMapped} {
		t.Run(mode.String(), func(t *testing.T) {
			c := startCluster(t, 3, WorkerConfig{Mode: mode, Workers: 3})
			ds := openSharded(t, c, path)
			m, err := logreg.TrainPlane(context.Background(), ds.Plane(0),
				preprocess.BinaryRule{Binarize: true, Positive: 3}, logreg.Options{MaxIterations: 8})
			if err != nil {
				t.Fatal(err)
			}
			eqFloats(t, "weights", m.Weights, want.Weights)
			eqBits(t, "intercept", m.Intercept, want.Intercept)
			if c.Shards() != 3 {
				t.Fatalf("active shards = %d, want 3", c.Shards())
			}
			if st := c.Stats(); st.Rounds == 0 || st.BytesSent == 0 || st.BytesReceived == 0 {
				t.Fatalf("stats not accounted: %+v", st)
			}
		})
	}
}

func TestSoftmaxParity(t *testing.T) {
	path := writeTestData(t, 1100, 5, 4)
	x, labels := openLocal(t, path)
	y, err := preprocess.IntLabels(labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := logreg.TrainSoftmax(context.Background(), x, y, 4, logreg.Options{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})
	m, err := logreg.TrainSoftmaxPlane(context.Background(), openSharded(t, c, path).Plane(0), 4, logreg.Options{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "weights", m.Weights, want.Weights)
	eqFloats(t, "bias", m.Bias, want.Bias)
}

func TestLinearParity(t *testing.T) {
	path := writeTestData(t, 1100, 4, 7)
	x, labels := openLocal(t, path)
	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})

	for _, tc := range []struct {
		name   string
		local  func(context.Context, *mat.Dense, []float64, linreg.Options) (*linreg.Model, error)
		remote func(context.Context, exec.Plane, linreg.Options) (*linreg.Model, error)
		opts   linreg.Options
	}{
		{"lbfgs", linreg.Train, linreg.TrainPlane, linreg.Options{MaxIterations: 8}},
		{"exact", linreg.TrainExact, linreg.TrainExactPlane, linreg.Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.local(context.Background(), x, labels, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			m, err := tc.remote(context.Background(), openSharded(t, c, path).Plane(0), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			eqFloats(t, "weights", m.Weights, want.Weights)
			eqBits(t, "intercept", m.Intercept, want.Intercept)
		})
	}
}

func TestBayesParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 5)
	x, labels := openLocal(t, path)
	y, err := preprocess.IntLabels(labels, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bayes.Train(context.Background(), x, y, 5, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 4, WorkerConfig{Mode: core.MemoryMapped, Workers: 2})
	m, err := bayes.TrainPlane(context.Background(), openSharded(t, c, path).Plane(0), 5, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "priors", m.LogPrior, want.LogPrior)
	eqFloats(t, "means", m.Mean, want.Mean)
	eqFloats(t, "variances", m.Var, want.Var)
}

func TestPCAParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 3)
	x, _ := openLocal(t, path)
	opts := pca.Options{Components: 3, Seed: 11}
	want, err := pca.Fit(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})
	r, err := pca.FitPlane(context.Background(), openSharded(t, c, path).Plane(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "mean", r.Mean, want.Mean)
	eqFloats(t, "eigenvalues", r.Eigenvalues, want.Eigenvalues)
	for i := 0; i < 3; i++ {
		eqFloats(t, fmt.Sprintf("component %d", i), r.Components.RawRow(i), want.Components.RawRow(i))
	}
}

func TestKMeansParity(t *testing.T) {
	path := writeTestData(t, 1100, 5, 3)
	x, _ := openLocal(t, path)
	for _, tc := range []struct {
		name string
		opts kmeans.Options
	}{
		{"kmeanspp", kmeans.Options{K: 4, MaxIterations: 10, Seed: 7}},
		{"random-init", kmeans.Options{K: 3, MaxIterations: 10, Seed: 3, RandomInit: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := kmeans.Run(context.Background(), x, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			c := startCluster(t, 3, WorkerConfig{Mode: core.MemoryMapped, Workers: 2})
			r, err := kmeans.RunPlane(context.Background(), openSharded(t, c, path).Plane(0), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			eqBits(t, "inertia", r.Inertia, want.Inertia)
			if r.Iterations != want.Iterations || r.Converged != want.Converged {
				t.Fatalf("iters/converged = %d/%v, want %d/%v", r.Iterations, r.Converged, want.Iterations, want.Converged)
			}
			k, _ := r.Centroids.Dims()
			for i := 0; i < k; i++ {
				eqFloats(t, fmt.Sprintf("centroid %d", i), r.Centroids.RawRow(i), want.Centroids.RawRow(i))
			}
			if len(r.Assignments) != len(want.Assignments) {
				t.Fatalf("%d assignments, want %d", len(r.Assignments), len(want.Assignments))
			}
			for i := range r.Assignments {
				if r.Assignments[i] != want.Assignments[i] {
					t.Fatalf("assignment[%d] = %d, want %d", i, r.Assignments[i], want.Assignments[i])
				}
			}
		})
	}
}

// fitScaledShards fits a standard scaler on the cluster and pushes it
// to the workers, returning it with the fused sharded dataset.
func fitScaledShards(t *testing.T, c *Coordinator, path string) (*preprocess.StandardScaler, *core.Dataset) {
	t.Helper()
	ds := openSharded(t, c, path)
	scaler, err := preprocess.FitStandardPlane(context.Background(), ds.Plane(0))
	if err != nil {
		t.Fatal(err)
	}
	fused, err := core.FusedDataset(context.Background(), ds, []core.Stage{scaler})
	if err != nil {
		t.Fatal(err)
	}
	if !fused.Fused() {
		t.Fatal("pushed stage did not mark the sharded dataset fused")
	}
	return scaler, fused
}

// TestScalerPipelineParity checks the streaming pipeline path: a
// standard scaler fitted on the shards, pushed as a fused stage, and
// a naive Bayes final trained off the fused shard views — against the
// identical local fused composition.
func TestScalerPipelineParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 4)
	x, labels := openLocal(t, path)
	y, err := preprocess.IntLabels(labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	scaler, err := preprocess.FitStandard(context.Background(), x, preprocess.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fused := mat.NewFused(x, x.Cols(), core.FuseKernels([]core.Stage{scaler}))
	want, err := bayes.Train(context.Background(), fused, y, 4, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}

	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})
	sc, ds := fitScaledShards(t, c, path)
	eqFloats(t, "scaler mean", sc.Mean, scaler.Mean)
	eqFloats(t, "scaler std", sc.Std, scaler.Std)
	m, err := bayes.TrainPlane(context.Background(), ds.Plane(0), 4, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "priors", m.LogPrior, want.LogPrior)
	eqFloats(t, "means", m.Mean, want.Mean)
	eqFloats(t, "variances", m.Var, want.Var)
}

// TestMaterializedPipelineParity checks the multi-epoch pipeline path:
// the workers cache their fused shards once, so every optimizer pass
// reads a cache instead of re-running the transform — and the result
// still matches the local fused composition.
func TestMaterializedPipelineParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	x, labels := openLocal(t, path)
	scaler, err := preprocess.FitStandard(context.Background(), x, preprocess.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fused := mat.NewFused(x, x.Cols(), core.FuseKernels([]core.Stage{scaler}))
	want, err := logreg.Train(context.Background(), fused, preprocess.BinaryLabels(labels, 2), logreg.Options{MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}

	c := startCluster(t, 3, WorkerConfig{Mode: core.MemoryMapped, Workers: 2})
	_, ds := fitScaledShards(t, c, path)
	cache, err := core.Materialize(context.Background(), ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Fused() {
		t.Fatal("materialized sharded dataset still reports fused views")
	}
	m, err := logreg.TrainPlane(context.Background(), cache.Plane(0),
		preprocess.BinaryRule{Binarize: true, Positive: 2}, logreg.Options{MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "weights", m.Weights, want.Weights)
	eqBits(t, "intercept", m.Intercept, want.Intercept)
}

// endlessLogistic is a logistic fit that runs until it fails.
func endlessLogistic(ctx context.Context, pl exec.Plane) error {
	_, err := logreg.TrainPlane(ctx, pl, preprocess.BinaryRule{Binarize: true, Positive: 3},
		logreg.Options{MaxIterations: 100000, GradTol: 1e-300})
	return err
}

// TestWorkerDiesMidFit kills one worker's connections mid-optimization
// and checks the coordinator surfaces a clean, attributed error
// instead of hanging.
func TestWorkerDiesMidFit(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	workers, addrs := startWorkers(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})
	c, err := DialWorkers(context.Background(), addrs, Options{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := openSharded(t, c, path)

	// Kill worker 1 once the fit is demonstrably mid-optimization.
	go func() {
		for c.Stats().Rounds < 3 {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // force: close live connections instead of draining
		workers[1].Shutdown(ctx)
	}()
	err = endlessLogistic(context.Background(), ds.Plane(0))
	if err == nil {
		t.Fatal("fit succeeded despite a dead worker")
	}
	if !strings.Contains(err.Error(), addrs[1]) {
		t.Fatalf("error does not name the dead worker %s: %v", addrs[1], err)
	}
}

// TestCancelMidFit cancels the coordinator's context mid-round and
// checks the fit unwinds promptly with ctx.Err().
func TestCancelMidFit(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})
	ds := openSharded(t, c, path)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the fit is demonstrably mid-optimization.
		for c.Stats().Rounds < 3 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	if err := endlessLogistic(ctx, ds.Plane(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancellation took %v", took)
	}
}

// TestMoreWorkersThanGroups: a tiny dataset must use fewer shards
// than workers, not fail.
func TestMoreWorkersThanGroups(t *testing.T) {
	path := writeTestData(t, 300, 4, 2) // 2 groups of 256
	x, labels := openLocal(t, path)
	opts := logreg.Options{MaxIterations: 5}
	want, err := logreg.Train(context.Background(), x, preprocess.BinaryLabels(labels, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 4, WorkerConfig{Mode: core.InMemory, Workers: 1})
	m, err := logreg.TrainPlane(context.Background(), openSharded(t, c, path).Plane(0),
		preprocess.BinaryRule{Binarize: true, Positive: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", c.Shards())
	}
	eqFloats(t, "weights", m.Weights, want.Weights)
}
