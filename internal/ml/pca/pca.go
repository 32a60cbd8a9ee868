// Package pca implements principal component analysis over
// (possibly memory-mapped) matrices: one streaming pass accumulates
// the covariance, then orthogonal power iteration with deflation
// extracts the leading components. Data is scanned exactly once
// regardless of the component count, so PCA joins naive Bayes at the
// cheap end of the scan-count spectrum M3 cares about.
package pca

import (
	"context"
	"errors"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
)

// Options configures the decomposition.
type Options struct {
	// FitOptions carries the shared training surface; Workers sizes
	// the mean and covariance scans' pool (<= 0: engine hint, then
	// NumCPU). The decomposition is identical for every value.
	fit.FitOptions
	// Components is the number of principal components (required).
	Components int
	// MaxIterations bounds power iterations per component
	// (default 1000).
	MaxIterations int
	// Tol is the eigenvector convergence tolerance (default 1e-10).
	Tol float64
	// Seed drives the deterministic start vectors.
	Seed uint64
}

func (o Options) withDefaults() (Options, error) {
	if o.Components < 1 {
		return o, fmt.Errorf("pca: components = %d, want >= 1", o.Components)
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	return o, nil
}

// Result is a fitted decomposition.
type Result struct {
	// Components is row-major K×D: each row a unit-norm principal
	// direction.
	Components *mat.Dense
	// Eigenvalues are the corresponding covariance eigenvalues
	// (variance along each component), descending.
	Eigenvalues []float64
	// Mean is the feature mean subtracted before projection.
	Mean []float64
	// TotalVariance is the trace of the covariance.
	TotalVariance float64
}

// ExplainedRatio returns the fraction of total variance captured by
// each component.
func (r *Result) ExplainedRatio() []float64 {
	out := make([]float64, len(r.Eigenvalues))
	if r.TotalVariance == 0 {
		return out
	}
	for i, v := range r.Eigenvalues {
		out[i] = v / r.TotalVariance
	}
	return out
}

// Transform projects row onto the components, writing K coordinates
// into dst.
func (r *Result) Transform(row []float64, dst []float64) {
	r.TransformInto(row, dst, make([]float64, r.Components.Cols()))
}

// TransformInto is Transform with caller-provided centering scratch
// (length D), so hot loops — the blocked transform pass, batch
// prediction — project rows without a per-row allocation.
func (r *Result) TransformInto(row, dst, centered []float64) {
	k, d := r.Components.Dims()
	if len(row) != d || len(dst) != k || len(centered) != d {
		panic(fmt.Sprintf("pca: shapes row=%d dst=%d scratch=%d model=(%d,%d)", len(row), len(dst), len(centered), k, d))
	}
	blas.AddScaled(centered, row, -1, r.Mean)
	for c := 0; c < k; c++ {
		dst[c] = blas.Dot(centered, r.Components.RawRow(c))
	}
}

// InCols, OutCols and BlockKernel make the decomposition a fused
// pipeline stage (core.Stage) projecting D features onto K
// components; each worker's kernel owns one centering buffer.
func (r *Result) InCols() int  { return r.Components.Cols() }
func (r *Result) OutCols() int { return r.Components.Rows() }
func (r *Result) BlockKernel() exec.RowKernel {
	centered := make([]float64, r.Components.Cols())
	return func(dst, src []float64) []float64 {
		r.TransformInto(src, dst, centered)
		return dst
	}
}

// Validate reports a decomposition whose basis and mean disagree, so
// a stage decoded off the wire is checked before it is fused.
func (r *Result) Validate() error {
	if r == nil || r.Components == nil || r.Components.Rows() < 1 || len(r.Mean) != r.Components.Cols() {
		return errors.New("pca: malformed decomposition")
	}
	return nil
}

// Reconstruct maps K projected coordinates back to feature space.
func (r *Result) Reconstruct(coords []float64, dst []float64) {
	k, d := r.Components.Dims()
	if len(coords) != k || len(dst) != d {
		panic(fmt.Sprintf("pca: shapes coords=%d dst=%d model=(%d,%d)", len(coords), len(dst), k, d))
	}
	copy(dst, r.Mean)
	for c := 0; c < k; c++ {
		blas.Axpy(coords[c], r.Components.RawRow(c), dst)
	}
}

func init() {
	exec.RegisterPass[[]float64](meanPass{})
	exec.RegisterPass[*covPartial](covPass{})
}

// Fit computes the decomposition. The data matrix is scanned exactly
// twice (mean pass + covariance pass); all further work is on the
// D×D covariance. ctx cancels either scan within one data block and
// the power iteration between components.
func Fit(ctx context.Context, x *mat.Dense, opts Options) (*Result, error) {
	return FitPlane(ctx, exec.Local(x, nil, opts.Workers), opts)
}

// FitPlane is Fit over a plane's rows.
func FitPlane(ctx context.Context, pl exec.Plane, opts Options) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	n, d := pl.Dims()
	if o.Components > d {
		return nil, fmt.Errorf("pca: %d components exceed %d features", o.Components, d)
	}
	if n < 2 {
		return nil, fmt.Errorf("pca: need >= 2 rows, got %d", n)
	}

	// Pass 1: mean — blocked column sums (blas.SumRows per block),
	// merged in row order.
	mean, _, err := exec.Reduce(ctx, pl, meanPass{D: d})
	if err != nil {
		return nil, err
	}
	blas.Scal(1/float64(n), mean)

	// Pass 2: covariance — per-block symmetric rank-1 accumulation
	// (blas.Syr on the upper triangle), partial triangles merged in
	// row order, then mirrored.
	cov, _, err := exec.Reduce(ctx, pl, covPass{Mean: mean})
	if err != nil {
		return nil, err
	}
	return finishFromCov(ctx, cov.Part, mean, n, o)
}

// meanPass sums the columns of rows of width D; divide the folded
// total by the row count to obtain the mean.
type meanPass struct{ D int }

func (p meanPass) Zero() []float64          { return make([]float64, p.D) }
func (p meanPass) Merge(dst, src []float64) { blas.Axpy(1, src, dst) }

func (p meanPass) Bind(_ *exec.Shard, scan *exec.RowScan) (exec.Kernel[[]float64], error) {
	if p.D != scan.Cols {
		return nil, fmt.Errorf("pca: mean pass for %d features on rows of %d", p.D, scan.Cols)
	}
	scan.Name = "pca mean"
	d := p.D
	return func(sum []float64, lo, hi int, block []float64, stride int) {
		blas.SumRows(hi-lo, d, block, stride, sum)
	}, nil
}

// covPartial is one merge group's (or block's) share of the centered
// scatter matrix (upper triangle). The centering buffer is per-state
// scratch and unexported, so gob ships only the aggregate.
type covPartial struct {
	Part     []float64
	centered []float64
}

// covPass accumulates the scatter of rows about Mean.
type covPass struct{ Mean []float64 }

func (p covPass) Zero() *covPartial {
	d := len(p.Mean)
	return &covPartial{Part: make([]float64, d*d), centered: make([]float64, d)}
}

func (p covPass) Merge(dst, src *covPartial) { blas.Axpy(1, src.Part, dst.Part) }

// Bind names and block-sizes the scan — each partial is a d×d matrix,
// so blocks hold at least ~d rows and the O(d²) zero+merge amortizes
// to O(d) per row — and returns the scatter kernel. The centering
// buffer lives in the state, not the kernel: fused scans deliver
// single-row blocks, so a per-call allocation would be per row.
func (p covPass) Bind(_ *exec.Shard, scan *exec.RowScan) (exec.Kernel[*covPartial], error) {
	d := len(p.Mean)
	if d != scan.Cols {
		return nil, fmt.Errorf("pca: covariance pass for %d features on rows of %d", d, scan.Cols)
	}
	scan.Name = "pca cov"
	if minBytes := d * d * 8; minBytes > exec.DefaultBlockBytes {
		scan.BlockBytes = minBytes
	}
	mean := p.Mean
	return func(st *covPartial, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			row := block[(i-lo)*stride : (i-lo)*stride+d]
			blas.AddScaled(st.centered, row, -1, mean)
			blas.Syr(d, 1, st.centered, st.Part, d)
		}
	}, nil
}

// finishFromCov normalizes the folded scatter into the covariance and
// runs the orthogonal power iteration — everything after the data
// passes. cov is consumed (normalized in place); opts must already
// carry defaults.
func finishFromCov(ctx context.Context, cov, mean []float64, n int, o Options) (*Result, error) {
	d := len(mean)
	inv := 1 / float64(n-1)
	var total float64
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov[a*d+b] * inv
			cov[a*d+b] = v
			cov[b*d+a] = v
		}
		total += cov[a*d+a]
	}

	res := &Result{
		Components:    mat.NewDense(o.Components, d),
		Eigenvalues:   make([]float64, o.Components),
		Mean:          mean,
		TotalVariance: total,
	}

	// Orthogonal power iteration with deflation.
	rng := o.Seed ^ 0x9e3779b97f4a7c15
	if rng == 0 {
		rng = 1
	}
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%2000)/1000 - 1
	}
	v := make([]float64, d)
	av := make([]float64, d)
	for c := 0; c < o.Components; c++ {
		if err := fit.Canceled(ctx); err != nil {
			return nil, err
		}
		for i := range v {
			v[i] = next()
		}
		orthogonalize(v, res.Components, c)
		if nrm := blas.Nrm2(v); nrm > 0 {
			blas.Scal(1/nrm, v)
		}
		var lambda float64
		for iter := 0; iter < o.MaxIterations; iter++ {
			// Power iteration is the long pole for wide inputs
			// (MaxIterations × O(d²) per component), so cancellation
			// must be polled here, not just once per component.
			if err := fit.Canceled(ctx); err != nil {
				return nil, err
			}
			blas.Gemv(d, d, 1, cov, d, v, 0, av)
			orthogonalize(av, res.Components, c)
			nrm := blas.Nrm2(av)
			if nrm == 0 {
				break // remaining spectrum is zero
			}
			blas.Scal(1/nrm, av)
			lambda = nrm
			// Convergence: direction change.
			diff := 0.0
			for i := range v {
				dd := math.Abs(av[i]) - math.Abs(v[i])
				diff += dd * dd
			}
			copy(v, av)
			if diff < o.Tol*o.Tol {
				break
			}
		}
		res.Components.SetRow(c, v)
		res.Eigenvalues[c] = lambda
	}
	return res, nil
}

// orthogonalize removes the projections of v onto the first k rows of
// basis (Gram–Schmidt step).
func orthogonalize(v []float64, basis *mat.Dense, k int) {
	for c := 0; c < k; c++ {
		row := basis.RawRow(c)
		blas.Axpy(-blas.Dot(v, row), row, v)
	}
}
