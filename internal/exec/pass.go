package exec

// The shardable-pass contract: every trainer's data pass is a
// gob-able value (the broadcast state — parameters, centroids, class
// count, label rule) that binds to a shard and yields one mergeable
// aggregate. A plane runs passes: the local plane is one in-process
// shard holding every row, scanned with ReduceRowBlocks; a cluster
// coordinator broadcasts the pass, its workers run ReduceRowGroups on
// their group-aligned shards, and the coordinator refolds the shipped
// group states with the same Merge in global row order. Both folds
// perform the same floating-point operations in the same order, so a
// trainer written once against a Plane is bit-identical on either.

import (
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
)

// RowView is the row storage a shard scans; *mat.Dense implements it
// (fused views included).
type RowView interface {
	Dims() (rows, cols int)
	ScanCtx(ctx context.Context, workers int) RowScan
	Row(i int) (row []float64, stall float64)
}

// Shard is the part of a dataset one process scans: its rows, their
// raw labels and the fit's per-shard scratch. A local fit has a single
// shard holding every row; a cluster worker holds one contiguous,
// merge-group-aligned row range.
type Shard struct {
	// X is the shard's current row view.
	X RowView
	// Labels are the raw labels of X's rows (nil when unlabelled).
	Labels []float64
	// Lo is the global index of X's first row.
	Lo int
	// Workers sizes the scan pool (<= 0: X's hint, then NumCPU).
	Workers int
	// GroupRows is the global merge-group height (<= 0 derives it from
	// X's rows, which is right when the shard is the whole dataset).
	GroupRows int

	scratch map[any]any
}

// Cached returns the shard's per-fit value under key, building it with
// mk on first use: derived labels, k-means assignments and distances.
func Cached[T any](sh *Shard, key any, mk func() (T, error)) (T, error) {
	if v, ok := sh.scratch[key].(T); ok {
		return v, nil
	}
	v, err := mk()
	if err != nil {
		return v, err
	}
	if sh.scratch == nil {
		sh.scratch = make(map[any]any)
	}
	sh.scratch[key] = v
	return v, nil
}

// Reset drops the fit's scratch.
func (sh *Shard) Reset() { sh.scratch = nil }

// SamplePrefix resumes a running sum acc over the []float64 scratch
// under key and returns the first shard-local index where it reaches
// target. Shards chain the walk in row order, each starting from the
// previous shard's acc, so the additions are exactly a flat walk's.
func (sh *Shard) SamplePrefix(key string, acc, target float64) (i int, newAcc float64, found bool, err error) {
	w, ok := sh.scratch[key].([]float64)
	if !ok {
		return 0, acc, false, fmt.Errorf("exec: no %q scratch to sample", key)
	}
	for i, v := range w {
		acc += v
		if acc >= target {
			return i, acc, true, nil
		}
	}
	return 0, acc, false, nil
}

// Ints returns the []int scratch under key.
func (sh *Shard) Ints(key string) ([]int, error) {
	v, ok := sh.scratch[key].([]int)
	if !ok {
		return nil, fmt.Errorf("exec: no %q scratch to gather", key)
	}
	return v, nil
}

// Kernel folds rows [lo, hi) of one block into a state (the
// ReduceRowBlocks callback shape).
type Kernel[S any] func(s S, lo, hi int, block []float64, stride int)

// Pass is one shardable data pass with aggregate state S. The value
// itself is the broadcast state and must be gob-encodable.
type Pass[S any] interface {
	// Zero returns a fresh identity state.
	Zero() S
	// Merge folds src into dst.
	Merge(dst, src S)
	// Bind readies the pass for one shard: it validates its state
	// against the shard, derives per-shard inputs (labels, scratch)
	// through Cached, may name or size the scan, and returns the block
	// kernel.
	Bind(sh *Shard, scan *RowScan) (Kernel[S], error)
}

// Job is a Pass with its state type erased — what planes and workers
// hold.
type Job interface {
	// Pass returns the pass value a coordinator broadcasts.
	Pass() any
	// Zero returns a fresh identity state.
	Zero() any
	// Scan runs the pass over sh and returns the folded state, or with
	// grouped the merge-group states in row order (a []S).
	Scan(ctx context.Context, sh *Shard, grouped bool) (any, float64, error)
	// Refold decodes one shard's group states ([]S) with decode and
	// folds them into total in order, returning how many it folded.
	Refold(total any, decode func(any) error) (int, error)
}

type job[S any] struct{ p Pass[S] }

func (j job[S]) Pass() any { return j.p }
func (j job[S]) Zero() any { return j.p.Zero() }

func (j job[S]) Scan(ctx context.Context, sh *Shard, grouped bool) (any, float64, error) {
	scan := sh.X.ScanCtx(ctx, sh.Workers)
	scan.GroupRows = sh.GroupRows
	add, err := j.p.Bind(sh, &scan)
	if err != nil {
		return nil, 0, err
	}
	if !grouped {
		total, stall, err := ReduceRowBlocks(scan, j.p.Zero, add, j.p.Merge)
		return total, stall, err
	}
	groups, stall, err := ReduceRowGroups(scan, j.p.Zero, add, j.p.Merge)
	if err != nil {
		return nil, stall, err
	}
	// Only the states travel: a slice encodes zero-valued elements
	// (a group of zero k-means++ mass, say), where a struct field
	// holding one would be dropped and decode as nil.
	states := make([]S, len(groups))
	for i, g := range groups {
		states[i] = g.State
	}
	return states, stall, nil
}

func (j job[S]) Refold(total any, decode func(any) error) (int, error) {
	var states []S
	if err := decode(&states); err != nil {
		return 0, err
	}
	t := total.(S)
	for _, s := range states {
		j.p.Merge(t, s)
	}
	return len(states), nil
}

// passes maps each registered pass type to its Job constructor.
var passes sync.Map

// RegisterPass makes a pass type shippable: gob learns its concrete
// type, and a worker can run a decoded value through JobOf. Call it
// from the owning package's init.
func RegisterPass[S any](p Pass[S]) {
	gob.Register(p)
	passes.Store(reflect.TypeOf(p), func(v any) Job { return job[S]{v.(Pass[S])} })
}

// JobOf returns the Job of a shipped pass value.
func JobOf(v any) (Job, error) {
	mk, ok := passes.Load(reflect.TypeOf(v))
	if !ok {
		return nil, fmt.Errorf("exec: %T is not a registered pass", v)
	}
	return mk.(func(any) Job)(v), nil
}

// Plane is where a fit's data passes run. Trainers written against it
// run unchanged on one process (Local) or on a cluster's shards, with
// bit-identical results.
type Plane interface {
	// Dims returns the global row count and the current row width.
	Dims() (rows, cols int)
	// Reduce runs the job over every row and returns its state folded
	// in global row order, plus simulated paging stall seconds.
	Reduce(ctx context.Context, j Job) (any, float64, error)
	// Sample walks the []float64 scratch under key in global row order
	// and returns the first row where the running sum reaches target
	// (the last row when it never does).
	Sample(ctx context.Context, key string, target float64) (int, error)
	// Row copies global row i into dst and returns its stall.
	Row(ctx context.Context, i int, dst []float64) (float64, error)
	// Gather concatenates the []int scratch under key in row order.
	Gather(ctx context.Context, key string) ([]int, error)
}

// Reduce runs p over every row of pl and returns the folded state.
func Reduce[S any](ctx context.Context, pl Plane, p Pass[S]) (S, float64, error) {
	v, stall, err := pl.Reduce(ctx, job[S]{p})
	if err != nil {
		var zero S
		return zero, stall, err
	}
	return v.(S), stall, nil
}

// Local returns the in-process plane: one shard holding every row of
// x, with its raw labels (nil when unlabelled), scanned by up to
// workers goroutines (<= 0: x's hint, then NumCPU).
func Local(x RowView, labels []float64, workers int) Plane {
	return local{&Shard{X: x, Labels: labels, Workers: workers}}
}

type local struct{ sh *Shard }

func (p local) Dims() (int, int) { return p.sh.X.Dims() }

func (p local) Reduce(ctx context.Context, j Job) (any, float64, error) {
	return j.Scan(ctx, p.sh, false)
}

func (p local) Sample(_ context.Context, key string, target float64) (int, error) {
	i, _, found, err := p.sh.SamplePrefix(key, 0, target)
	if !found {
		n, _ := p.sh.X.Dims()
		i = n - 1
	}
	return i, err
}

func (p local) Row(_ context.Context, i int, dst []float64) (float64, error) {
	row, stall := p.sh.X.Row(i)
	copy(dst, row)
	return stall, nil
}

func (p local) Gather(_ context.Context, key string) ([]int, error) { return p.sh.Ints(key) }
