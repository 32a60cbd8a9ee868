package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"m3/internal/core"
	"m3/internal/exec"
	"m3/internal/mat"
	"m3/internal/ml/bayes"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/linreg"
	"m3/internal/ml/logreg"
	"m3/internal/ml/pca"
	"m3/internal/ml/preprocess"
	"m3/internal/obs"
)

func init() {
	exec.RegisterPass[*float64](zeroPass{})
	exec.RegisterPass[*float64](gatedPass{})
}

// zeroPass folds nothing: every merge-group state stays an all-zero
// *float64 — the value gob drops when it sits in a struct field.
type zeroPass struct{}

func (zeroPass) Zero() *float64          { return new(float64) }
func (zeroPass) Merge(dst, src *float64) { *dst += *src }
func (zeroPass) Bind(*exec.Shard, *exec.RowScan) (exec.Kernel[*float64], error) {
	return func(*float64, int, int, []float64, int) {}, nil
}

// TestZeroGroupStatesRoundTrip ships all-zero group states (a group
// of zero k-means++ mass, say) and folds them on the coordinator.
func TestZeroGroupStatesRoundTrip(t *testing.T) {
	path := writeTestData(t, 1100, 4, 2)
	c := startCluster(t, 2, WorkerConfig{Mode: core.InMemory, Workers: 1})
	total, _, err := exec.Reduce(context.Background(), openSharded(t, c, path).Plane(0), zeroPass{})
	if err != nil {
		t.Fatal(err)
	}
	if total == nil || *total != 0 {
		t.Fatalf("total = %v, want a zero state", total)
	}
}

// gated lets TestWorkerStopsOnHangup act while gatedPass's kernel is
// parked inside the worker's first block.
var gated struct {
	bound   chan context.Context // the worker scan's context, sent by Bind
	started chan struct{}        // closed when the first block begins
	release chan struct{}        // the first block waits on it
	blocks  atomic.Int64
}

// gatedPass counts rows, parking its first block on gated.release.
type gatedPass struct{}

func (gatedPass) Zero() *float64          { return new(float64) }
func (gatedPass) Merge(dst, src *float64) { *dst += *src }
func (gatedPass) Bind(_ *exec.Shard, scan *exec.RowScan) (exec.Kernel[*float64], error) {
	gated.bound <- scan.Ctx
	return func(s *float64, lo, hi int, _ []float64, _ int) {
		if gated.blocks.Add(1) == 1 {
			close(gated.started)
			<-gated.release
		}
		*s += float64(hi - lo)
	}, nil
}

// TestWorkerStopsOnHangup drops the coordinator's connection while a
// worker is inside a shard scan: the scan must stop at the next block
// boundary, the session must release its engine, and every span must
// close.
func TestWorkerStopsOnHangup(t *testing.T) {
	path := writeTestData(t, 4096, 64, 2) // 16 one-block merge groups
	workers, addrs := startWorkers(t, 1, WorkerConfig{Mode: core.InMemory, Workers: 1})
	w := workers[0]
	c, err := DialWorkers(context.Background(), addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := openSharded(t, c, path)
	gated.bound = make(chan context.Context, 1)
	gated.started, gated.release = make(chan struct{}), make(chan struct{})
	gated.blocks.Store(0)
	tr := obs.StartTrace()
	defer obs.StopTrace()

	done := make(chan error, 1)
	go func() {
		_, _, err := exec.Reduce(context.Background(), ds.Plane(0), gatedPass{})
		done <- err
	}()
	scanCtx := <-gated.bound
	<-gated.started
	var s *session
	w.mu.Lock()
	for _, cs := range w.conns {
		s = cs
	}
	w.mu.Unlock()

	c.Close()
	if err := <-done; err == nil {
		t.Fatal("reduce succeeded after the coordinator hung up")
	}
	select {
	case <-scanCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("hangup did not cancel the worker's scan")
	}
	close(gated.release)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		n := len(w.conns)
		w.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker still serving the dropped connection")
		}
	}
	if got := gated.blocks.Load(); got != 1 {
		t.Fatalf("worker scanned %d blocks, want it to stop after the one in flight", got)
	}
	w.mu.Lock()
	eng := s.eng
	w.mu.Unlock()
	if eng != nil {
		t.Fatal("session engine not closed")
	}
	if open := tr.OpenSpans(); open != 0 {
		t.Fatalf("%d spans left open", open)
	}
}

// TestReadFrameBoundedAlloc: a header declaring the largest legal
// frame, then EOF, must cost about what arrived, not what was
// promised.
func TestReadFrameBoundedAlloc(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(hdr[:]), &request{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame decoded")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("truncated frame allocated %d bytes", d)
	}
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, &request{Seq: 3, Op: "reduce", Body: []byte{1, 2, 3}})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 9, 1})
	f.Add([]byte{0x40, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := readFrame(bytes.NewReader(data), &request{}); err == nil && len(data) < 4 {
			t.Fatalf("%d bytes decoded as a frame", len(data))
		}
	})
}

// errRecorded stops a trainer once passRecorder has its pass.
var errRecorded = errors.New("recorded")

// passRecorder is a plane that captures the first pass a trainer runs.
type passRecorder struct {
	cols int
	pass any
}

func (r *passRecorder) Dims() (int, int) { return 600, r.cols }
func (r *passRecorder) Reduce(_ context.Context, j exec.Job) (any, float64, error) {
	r.pass = j.Pass()
	return nil, 0, errRecorded
}
func (r *passRecorder) Sample(context.Context, string, float64) (int, error) { return 0, errRecorded }
func (r *passRecorder) Row(context.Context, int, []float64) (float64, error) { return 0, nil }
func (r *passRecorder) Gather(context.Context, string) ([]int, error)        { return nil, errRecorded }

// trainerPasses returns the first pass of every shardable trainer on
// rows of width cols.
func trainerPasses(cols int) []any {
	ctx := context.Background()
	init := mat.NewDense(2, cols)
	fits := []func(exec.Plane){
		func(p exec.Plane) {
			logreg.TrainPlane(ctx, p, preprocess.BinaryRule{Binarize: true, Positive: 1}, logreg.Options{})
		},
		func(p exec.Plane) { logreg.TrainSoftmaxPlane(ctx, p, 3, logreg.Options{}) },
		func(p exec.Plane) { linreg.TrainPlane(ctx, p, linreg.Options{}) },
		func(p exec.Plane) { linreg.TrainExactPlane(ctx, p, linreg.Options{}) },
		func(p exec.Plane) { bayes.TrainPlane(ctx, p, 3, bayes.Options{}) },
		func(p exec.Plane) { pca.FitPlane(ctx, p, pca.Options{Components: 2}) },
		func(p exec.Plane) { preprocess.FitStandardPlane(ctx, p) },
		func(p exec.Plane) { preprocess.FitMinMaxPlane(ctx, p) },
		func(p exec.Plane) { kmeans.RunPlane(ctx, p, kmeans.Options{K: 2}) },
		func(p exec.Plane) { kmeans.RunPlane(ctx, p, kmeans.Options{K: 2, InitCentroids: init}) },
	}
	var out []any
	for _, fit := range fits {
		r := &passRecorder{cols: cols}
		fit(r)
		out = append(out, r.pass)
	}
	return out
}

// FuzzSessionHandle feeds arbitrary ops and bodies to a session holding
// an open shard: every input must come back as a reply or an error,
// never a panic (handleConn's recover is not in the path here).
func FuzzSessionHandle(f *testing.F) {
	const cols = 4
	path := writeTestData(f, 600, cols, 3)
	open := openReq{Path: path, Lo: 256, Hi: 600, GroupRows: 256}
	seed := func(op string, req any) {
		body, err := encodeBody(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(op, body)
	}
	seed("stat", &statReq{Path: path})
	seed("open", &open)
	seed("reset", struct{}{})
	seed("materialize", struct{}{})
	seed("stage", &stageReq{Stage: &preprocess.StandardScaler{Mean: make([]float64, cols), Std: []float64{1, 2, 3, 4}}})
	seed("stage", &stageReq{Stage: &preprocess.MinMaxScaler{Min: make([]float64, cols), Range: []float64{1, 1, 1, 1}}})
	for i, p := range trainerPasses(cols) {
		if p == nil {
			f.Fatalf("trainer %d ran no pass", i)
		}
		seed("reduce", &reduceReq{Pass: p})
	}
	seed("sample", &sampleReq{Key: "kmeans++ distances", Target: 1})
	seed("row", &rowReq{I: 3})
	seed("gather", &gatherReq{Key: "kmeans assignments"})
	f.Add("nope", []byte{})

	known := map[string]bool{"stat": true, "open": true, "reset": true, "stage": true,
		"materialize": true, "reduce": true, "sample": true, "row": true, "gather": true}
	f.Fuzz(func(t *testing.T, op string, body []byte) {
		s := &session{cfg: WorkerConfig{Mode: core.InMemory, Workers: 1}}
		defer s.close()
		if op != "stat" && op != "open" {
			if err := s.open(open); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.handle(context.Background(), op, body); err == nil && !known[op] {
			t.Fatalf("unknown op %q succeeded", op)
		}
	})
}
