// Package kmeans implements Lloyd's algorithm with k-means++
// initialization — the second of the paper's two evaluation workloads
// (10 iterations, 5 clusters in Figure 1b). Each iteration streams
// the (possibly memory-mapped) data matrix once: the assignment pass
// is a pure sequential scan, which is why k-means pages as well as
// logistic regression under M3.
//
// The algorithm is written against an exec.Plane: the assignment and
// seeding scans are shardable passes, and the k-means++ prefix walk,
// row fetches and the final assignment gather are plane operations
// over the passes' per-shard scratch. Run wires the plane to a local
// matrix; on a cluster the same driver runs against the sharded plane
// with bit-identical results.
package kmeans

import (
	"context"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/optimize"
)

// Options configures a k-means run.
type Options struct {
	// FitOptions carries the shared training surface. Workers sizes
	// the pool for the init and assignment scans; Callback runs after
	// each Lloyd iteration with IterInfo{Iter, Value: inertia} and can
	// stop the run. Assignments, centroids and inertia are identical
	// for every worker count.
	fit.FitOptions
	// K is the number of clusters (required, >= 1).
	K int
	// MaxIterations bounds Lloyd iterations (default 100; the paper
	// runs exactly 10).
	MaxIterations int
	// Tol stops early when no assignment changes and centroid
	// movement falls below it (default 1e-9).
	Tol float64
	// Seed drives k-means++ sampling; runs are deterministic in it.
	Seed uint64
	// RandomInit selects uniform random initial centroids instead of
	// k-means++ (ablation baseline).
	RandomInit bool
	// InitCentroids, when non-nil, supplies explicit initial
	// centroids (K×D) and skips seeding entirely. Used to give M3
	// and the Spark baseline identical starting points.
	InitCentroids *mat.Dense
	// RunAllIterations disables early convergence so exactly
	// MaxIterations passes execute — the paper's fixed "10
	// iterations" protocol.
	RunAllIterations bool
}

func (o Options) withDefaults() (Options, error) {
	if o.K < 1 {
		return o, fmt.Errorf("kmeans: K = %d, want >= 1", o.K)
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o, nil
}

// Result is a completed clustering.
type Result struct {
	// Centroids is a K×D heap matrix.
	Centroids *mat.Dense
	// Assignments maps each row to its cluster.
	Assignments []int
	// Inertia is the sum of squared distances to assigned centroids.
	Inertia float64
	// Iterations actually performed.
	Iterations int
	// Converged reports whether assignments stabilized before the
	// iteration budget ran out.
	Converged bool
	// Stall is the cumulative simulated paging stall in seconds
	// (zero on real backends).
	Stall float64
	// Scans counts full passes over the data matrix.
	Scans int
}

func init() {
	exec.RegisterPass[*assignPartial](assignPass{})
	exec.RegisterPass[*float64](seedPass{})
}

// Per-shard scratch the passes keep for the plane operations.
const (
	// assignKey holds each row's cluster ([]int), updated by every
	// assignment pass and gathered at the end of the fit.
	assignKey = "kmeans assignments"
	// distKey holds each row's squared distance to its nearest chosen
	// seed ([]float64), tightened by every seeding pass and walked by
	// the k-means++ prefix sample.
	distKey = "kmeans++ distances"
)

// assignPartial is one merge group's (or block's) share of a Lloyd
// assignment pass. Fields are exported for gob.
type assignPartial struct {
	Sums    []float64
	Counts  []int
	Inertia float64
	Changed int
}

// assignPass is one Lloyd assignment pass against K centroids of
// width D (row-major).
type assignPass struct {
	Centroids []float64
	K, D      int
}

func (p assignPass) Zero() *assignPartial {
	return &assignPartial{Sums: make([]float64, p.K*p.D), Counts: make([]int, p.K)}
}

func (p assignPass) Merge(dst, src *assignPartial) {
	dst.Inertia += src.Inertia
	dst.Changed += src.Changed
	blas.Axpy(1, src.Sums, dst.Sums)
	for c, n := range src.Counts {
		dst.Counts[c] += n
	}
}

func (p assignPass) Bind(sh *exec.Shard, scan *exec.RowScan) (exec.Kernel[*assignPartial], error) {
	if p.K < 1 || p.K > len(p.Centroids) || p.D != scan.Cols || len(p.Centroids) != p.K*p.D {
		return nil, fmt.Errorf("kmeans: %d centroid values for K=%d, D=%d, on rows of %d", len(p.Centroids), p.K, p.D, scan.Cols)
	}
	rows := scan.Rows
	assignments, err := exec.Cached(sh, assignKey, func() ([]int, error) { return make([]int, rows), nil })
	if err != nil {
		return nil, err
	}
	scan.Name = "kmeans assign"
	k, d, centroids := p.K, p.D, p.Centroids
	return func(ap *assignPartial, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			row := block[(i-lo)*stride : (i-lo)*stride+d]
			bestC, best := blas.NearestRow(row, k, d, centroids, d)
			if assignments[i] != bestC {
				ap.Changed++
				assignments[i] = bestC
			}
			ap.Inertia += best
			blas.Axpy(1, row, ap.Sums[bestC*d:(bestC+1)*d])
			ap.Counts[bestC]++
		}
	}, nil
}

// seedPass is one k-means++ seeding pass: it tightens every row's
// distance against the newest centroid Prev and totals the mass.
type seedPass struct{ Prev []float64 }

func (seedPass) Zero() *float64          { return new(float64) }
func (seedPass) Merge(dst, src *float64) { *dst += *src }

func (p seedPass) Bind(sh *exec.Shard, scan *exec.RowScan) (exec.Kernel[*float64], error) {
	if len(p.Prev) != scan.Cols {
		return nil, fmt.Errorf("kmeans: seed of %d values on rows of %d", len(p.Prev), scan.Cols)
	}
	rows := scan.Rows
	dist, err := exec.Cached(sh, distKey, func() ([]float64, error) {
		d := make([]float64, rows)
		for i := range d {
			d[i] = math.Inf(1)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	scan.Name = "kmeans++ seed"
	prev, d := p.Prev, scan.Cols
	return func(mass *float64, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			if d2 := blas.SqDist(block[(i-lo)*stride:(i-lo)*stride+d], prev); d2 < dist[i] {
				dist[i] = d2
			}
			*mass += dist[i]
		}
	}, nil
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) uniform() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Run clusters the rows of x into K groups. ctx cancels the run
// within one data block of the init or assignment scans; the error is
// then ctx.Err() and no result is returned.
func Run(ctx context.Context, x *mat.Dense, opts Options) (*Result, error) {
	return RunPlane(ctx, exec.Local(x, nil, opts.Workers), opts)
}

// RunPlane clusters the plane's rows into K groups — the full Lloyd
// driver (init, iterate, converge). The plane must be fresh for the
// fit: its shards' assignment and distance scratch start empty.
func RunPlane(ctx context.Context, plane exec.Plane, opts Options) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	n, d := plane.Dims()
	if o.K > n {
		return nil, fmt.Errorf("kmeans: K = %d exceeds %d rows", o.K, n)
	}
	r := &rng{s: o.Seed ^ 0x9e3779b97f4a7c15}
	if r.s == 0 {
		r.s = 1
	}

	res := &Result{Centroids: mat.NewDense(o.K, d)}
	rowBuf := make([]float64, d)
	fetch := func(i, c int) error {
		stall, err := plane.Row(ctx, i, rowBuf)
		if err != nil {
			return err
		}
		res.Stall += stall
		res.Stall += res.Centroids.SetRow(c, rowBuf)
		return nil
	}
	switch {
	case o.InitCentroids != nil:
		ik, id := o.InitCentroids.Dims()
		if ik != o.K || id != d {
			return nil, fmt.Errorf("kmeans: InitCentroids is %dx%d, want %dx%d", ik, id, o.K, d)
		}
		res.Centroids.CopyFrom(o.InitCentroids)
	case o.RandomInit:
		// K distinct random rows as centroids.
		seen := make(map[int]bool, o.K)
		for c := 0; c < o.K; c++ {
			i := r.intn(n)
			for seen[i] {
				i = r.intn(n)
			}
			seen[i] = true
			if err := fetch(i, c); err != nil {
				return nil, err
			}
		}
		res.Scans++ // counted as one pass worth of row touches
	default:
		// k-means++ (Arthur & Vassilvitskii 2007): each next centroid
		// is sampled with probability proportional to the squared
		// distance from the nearest chosen centroid. Costs one data
		// scan per centroid.
		if err := fetch(r.intn(n), 0); err != nil {
			return nil, err
		}
		for c := 1; c < o.K; c++ {
			mass, stall, err := exec.Reduce(ctx, plane, seedPass{Prev: res.Centroids.RawRow(c - 1)})
			if err != nil {
				return nil, err
			}
			res.Stall += stall
			res.Scans++
			chosen, err := plane.Sample(ctx, distKey, r.uniform()*(*mass))
			if err != nil {
				return nil, err
			}
			if err := fetch(chosen, c); err != nil {
				return nil, err
			}
		}
	}

	newCentroid := make([]float64, d)
	centroids, ok := res.Centroids.Contiguous() // K×d heap matrix is always contiguous
	if !ok {
		return nil, fmt.Errorf("kmeans: internal: centroid matrix not contiguous")
	}
	callback := o.Hook("kmeans")
	finish := func() (*Result, error) {
		a, err := plane.Gather(ctx, assignKey)
		if err != nil {
			return nil, err
		}
		res.Assignments = a
		return res, nil
	}

	for iter := 1; iter <= o.MaxIterations; iter++ {
		acc, stall, err := exec.Reduce(ctx, plane, assignPass{Centroids: centroids, K: o.K, D: d})
		if err != nil {
			return nil, err
		}
		res.Stall += stall
		res.Scans++
		res.Inertia = acc.Inertia
		res.Iterations = iter

		// Update pass: centroids are tiny, no data scan needed.
		move := 0.0
		for c := 0; c < o.K; c++ {
			if acc.Counts[c] == 0 {
				// Empty-cluster repair: respawn at a random row.
				stall, err := plane.Row(ctx, r.intn(n), newCentroid)
				if err != nil {
					return nil, err
				}
				res.Stall += stall
			} else {
				copy(newCentroid, acc.Sums[c*d:(c+1)*d])
				blas.Scal(1/float64(acc.Counts[c]), newCentroid)
			}
			move += blas.SqDist(newCentroid, res.Centroids.RawRow(c))
			res.Centroids.SetRow(c, newCentroid)
		}

		if callback != nil && !callback(optimize.IterInfo{Iter: iter, Value: acc.Inertia}) {
			return finish()
		}
		if acc.Changed == 0 && move < o.Tol {
			res.Converged = true
			if !o.RunAllIterations {
				return finish()
			}
		}
		// First iteration always counts as changed (assignments
		// start at zero); don't let that block convergence later.
	}
	return finish()
}

// initRandom picks K distinct random rows as centroids (used by the
// mini-batch variant, which runs on a local matrix only).
func initRandom(x *mat.Dense, centroids *mat.Dense, r *rng) (stall float64) {
	n, _ := x.Dims()
	k, _ := centroids.Dims()
	seen := make(map[int]bool, k)
	for c := 0; c < k; c++ {
		i := r.intn(n)
		for seen[i] {
			i = r.intn(n)
		}
		seen[i] = true
		row, s := x.Row(i)
		stall += s
		stall += centroids.SetRow(c, row)
	}
	return stall
}

// Predict returns the nearest-centroid assignment for a single row.
func (r *Result) Predict(row []float64) int {
	best, bestC := math.Inf(1), 0
	k, _ := r.Centroids.Dims()
	for c := 0; c < k; c++ {
		if d2 := blas.SqDist(row, r.Centroids.RawRow(c)); d2 < best {
			best, bestC = d2, c
		}
	}
	return bestC
}

// Inertia computes the clustering cost of arbitrary data under this
// result's centroids (one scan).
func Inertia(x *mat.Dense, centroids *mat.Dense) float64 {
	k, _ := centroids.Dims()
	var total float64
	x.ForEachRow(func(i int, row []float64) {
		best := math.Inf(1)
		for c := 0; c < k; c++ {
			if d2 := blas.SqDist(row, centroids.RawRow(c)); d2 < best {
				best = d2
			}
		}
		total += best
	})
	return total
}
