// Package linreg implements ridge linear regression over
// (possibly memory-mapped) matrices, trained either by streaming
// L-BFGS — the same iteration structure as the paper's logistic
// regression, so it inherits M3's paging behaviour unchanged — or by
// the closed-form normal equations for low-dimensional problems.
package linreg

import (
	"context"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/ml/preprocess"
	"m3/internal/optimize"
)

// Options configures training.
type Options struct {
	// FitOptions carries the shared training surface (workers
	// override, iteration callback, verbosity).
	fit.FitOptions
	// Lambda is the ridge penalty (default 1e-6).
	Lambda float64
	// NoIntercept disables the bias term.
	NoIntercept bool
	// MaxIterations bounds L-BFGS (default 100).
	MaxIterations int
	// GradTol is the L-BFGS gradient tolerance (default 1e-8).
	GradTol float64
}

func (o Options) withDefaults() Options {
	if o.Lambda == 0 {
		o.Lambda = 1e-6
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-8
	}
	return o
}

// Model is a fitted linear regressor.
type Model struct {
	// Weights holds one coefficient per feature.
	Weights []float64
	// Intercept is the bias (0 without intercept).
	Intercept float64
}

// Predict returns w·row + b.
func (m *Model) Predict(row []float64) float64 {
	return blas.Dot(row, m.Weights) + m.Intercept
}

// MSE computes the mean squared error over a matrix.
func (m *Model) MSE(x *mat.Dense, y []float64) float64 {
	if x.Rows() == 0 {
		return 0
	}
	var sse float64
	x.ForEachRow(func(i int, row []float64) {
		d := m.Predict(row) - y[i]
		sse += d * d
	})
	return sse / float64(x.Rows())
}

// R2 computes the coefficient of determination over a matrix.
func (m *Model) R2(x *mat.Dense, y []float64) float64 {
	n := x.Rows()
	if n == 0 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	var ssTot float64
	for _, v := range y {
		d := v - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - m.MSE(x, y)*float64(n)/ssTot
}

func init() {
	exec.RegisterPass[*lsqPartial](lsqPass{})
	exec.RegisterPass[*gramPartial](gramPass{})
}

// Objective is the ridge least-squares loss over the rows of a plane
// (the raw labels are the targets); every Eval is one lsqPass. It
// implements optimize.Objective. A failed pass is kept in Err and
// turns the loss into NaN, which stops the optimizer.
type Objective struct {
	ctx    context.Context
	plane  exec.Plane
	pass   lsqPass
	n      int
	lambda float64

	// Err is the first pass failure.
	Err error
	// Scans counts full passes.
	Scans int
}

// NewObjective returns the objective over pl's rows. ctx cancels its
// scans within one block.
func NewObjective(ctx context.Context, pl exec.Plane, lambda float64, intercept bool) (*Objective, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("linreg: negative lambda %v", lambda)
	}
	n, d := pl.Dims()
	return &Objective{ctx: ctx, plane: pl, n: n, lambda: lambda, pass: lsqPass{D: d, Intercept: intercept}}, nil
}

// Dim returns the parameter count.
func (o *Objective) Dim() int { return o.pass.dim() }

// Eval computes ½·mean((w·x+b−y)²) + ½λ‖w‖² and its gradient in one
// pass over the plane.
func (o *Objective) Eval(params, grad []float64) float64 {
	if o.Err != nil {
		return math.NaN()
	}
	p := o.pass
	p.Params = params
	total, _, err := exec.Reduce(o.ctx, o.plane, p)
	o.Scans++
	if err != nil {
		o.Err = err
		return math.NaN()
	}
	return finishLsq(total, o.n, p.D, o.lambda, p.Intercept, params, grad)
}

// lsqPartial is one merge group's (or block's) share of the
// least-squares loss and gradient. Fields are exported for gob.
type lsqPartial struct {
	SSE, GB float64
	GW      []float64
}

// lsqPass evaluates the least-squares objective at Params over rows of
// width D.
type lsqPass struct {
	Params    []float64
	D         int
	Intercept bool
}

// dim returns the parameter count: D weights plus the intercept.
func (p lsqPass) dim() int {
	if p.Intercept {
		return p.D + 1
	}
	return p.D
}

func (p lsqPass) Zero() *lsqPartial { return &lsqPartial{GW: make([]float64, p.D)} }

func (p lsqPass) Merge(dst, src *lsqPartial) {
	dst.SSE += src.SSE
	dst.GB += src.GB
	blas.Axpy(1, src.GW, dst.GW)
}

func (p lsqPass) Bind(sh *exec.Shard, scan *exec.RowScan) (exec.Kernel[*lsqPartial], error) {
	y, err := targets(sh, len(p.Params), p.dim(), p.D, scan.Cols)
	if err != nil {
		return nil, err
	}
	scan.Name = "linreg grad"
	d := p.D
	w := p.Params[:d]
	var b float64
	if p.Intercept {
		b = p.Params[d]
	}
	return func(l *lsqPartial, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			row := block[(i-lo)*stride : (i-lo)*stride+d]
			r := blas.Dot(row, w) + b - y[i]
			l.SSE += r * r
			blas.Axpy(r, row, l.GW)
			l.GB += r
		}
	}, nil
}

// targets checks a pass holding n parameters where it needs want, or
// built for d features, against rows of width cols, and returns the
// shard's regression targets.
func targets(sh *exec.Shard, n, want, d, cols int) ([]float64, error) {
	if n != want || d != cols {
		return nil, fmt.Errorf("linreg: %d parameters (want %d) for %d features, on rows of %d", n, want, d, cols)
	}
	return preprocess.RawLabels(sh)
}

// finishLsq turns the folded total into the mean regularized loss and
// gradient.
func finishLsq(total *lsqPartial, n, d int, lambda float64, intercept bool, params, grad []float64) float64 {
	w := params[:d]
	blas.Fill(grad, 0)
	gw := grad[:d]
	nf := float64(n)
	blas.AddScaled(gw, gw, 1/nf, total.GW)
	if intercept {
		grad[d] = total.GB / nf
	}
	loss := 0.5 * total.SSE / nf
	loss += 0.5 * lambda * blas.Dot(w, w)
	blas.Axpy(lambda, w, gw)
	return loss
}

// Train fits the model with blocked L-BFGS scans over x and targets
// y. ctx cancels the fit within one data block.
func Train(ctx context.Context, x *mat.Dense, y []float64, opts Options) (*Model, error) {
	return TrainPlane(ctx, exec.Local(x, y, opts.Workers), opts)
}

// TrainPlane is Train over a plane's rows, whose raw labels are the
// targets.
func TrainPlane(ctx context.Context, pl exec.Plane, opts Options) (*Model, error) {
	o := opts.withDefaults()
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	obj, err := NewObjective(ctx, pl, o.Lambda, !o.NoIntercept)
	if err != nil {
		return nil, err
	}
	res, err := optimize.LBFGS(ctx, obj, make([]float64, obj.Dim()), optimize.LBFGSParams{
		MaxIterations: o.MaxIterations,
		GradTol:       o.GradTol,
		Callback:      o.Hook("linreg"),
	})
	if obj.Err != nil {
		return nil, obj.Err
	}
	if err != nil {
		return nil, err
	}
	return modelFrom(res.X, obj.pass.D, o.NoIntercept), nil
}

// modelFrom splits a solved parameter vector into weights and
// intercept.
func modelFrom(x []float64, d int, noIntercept bool) *Model {
	m := &Model{Weights: x[:d]}
	if !noIntercept {
		m.Intercept = x[d]
	}
	return m
}

// TrainExact solves the ridge normal equations (XᵀX + λI)w = Xᵀy by
// Cholesky factorization. One data scan builds the Gram matrix; the
// solve is O(d³), so this path suits d up to a few thousand. The
// intercept is handled by augmenting with a constant column
// (unregularized). ctx cancels the Gram scan within one data block.
func TrainExact(ctx context.Context, x *mat.Dense, y []float64, opts Options) (*Model, error) {
	return TrainExactPlane(ctx, exec.Local(x, y, opts.Workers), opts)
}

// TrainExactPlane is TrainExact over a plane's rows.
func TrainExactPlane(ctx context.Context, pl exec.Plane, opts Options) (*Model, error) {
	o := opts.withDefaults()
	n, d := pl.Dims()
	pass := gramPass{D: d, NoIntercept: o.NoIntercept}
	g, _, err := exec.Reduce(ctx, pl, pass)
	if err != nil {
		return nil, err
	}
	p := pass.size()
	// Ridge on weights only.
	for a := 0; a < d; a++ {
		g.Gram[a*p+a] += o.Lambda * float64(n)
	}
	w, err := choleskySolve(g.Gram, g.RHS, p)
	if err != nil {
		return nil, err
	}
	return modelFrom(w, d, o.NoIntercept), nil
}

// gramPartial is one merge group's (or block's) share of the ridge
// normal equations: a p×p Gram block and the Xᵀy right-hand side.
// Fields are exported for gob.
type gramPartial struct {
	Gram, RHS []float64
}

// gramPass is the exact path's single scan over rows of width D.
type gramPass struct {
	D           int
	NoIntercept bool
}

// size returns the system size: D plus the intercept column.
func (p gramPass) size() int {
	if p.NoIntercept {
		return p.D
	}
	return p.D + 1
}

func (p gramPass) Zero() *gramPartial {
	n := p.size()
	return &gramPartial{Gram: make([]float64, n*n), RHS: make([]float64, n)}
}

func (p gramPass) Merge(dst, src *gramPartial) {
	blas.Axpy(1, src.Gram, dst.Gram)
	blas.Axpy(1, src.RHS, dst.RHS)
}

// Bind names and block-sizes the scan — each partial carries a p×p
// block, so blocks hold at least ~p rows and the O(p²) zero+merge
// amortizes to O(p) per row — and returns the normal-equation kernel.
func (p gramPass) Bind(sh *exec.Shard, scan *exec.RowScan) (exec.Kernel[*gramPartial], error) {
	y, err := targets(sh, 0, 0, p.D, scan.Cols)
	if err != nil {
		return nil, err
	}
	d, n, noIntercept := p.D, p.size(), p.NoIntercept
	scan.Name = "linreg gram"
	if minBytes := n * n * 8; minBytes > exec.DefaultBlockBytes {
		scan.BlockBytes = minBytes
	}
	return func(g *gramPartial, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			row := block[(i-lo)*stride : (i-lo)*stride+d]
			for a := 0; a < d; a++ {
				va := row[a]
				if va == 0 {
					continue
				}
				blas.Axpy(va, row, g.Gram[a*n:a*n+d])
				if !noIntercept {
					g.Gram[a*n+d] += va
				}
				g.RHS[a] += va * y[i]
			}
			if !noIntercept {
				blas.Axpy(1, row, g.Gram[d*n:d*n+d])
				g.Gram[d*n+d]++
				g.RHS[d] += y[i]
			}
		}
	}, nil
}

// choleskySolve solves Ax=b for symmetric positive-definite A (n×n,
// row-major), overwriting nothing.
func choleskySolve(a, b []float64, n int) ([]float64, error) {
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("linreg: gram matrix not positive definite (pivot %d = %g)", i, sum)
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	// Forward substitution: L z = b.
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * z[k]
		}
		z[i] = sum / l[i*n+i]
	}
	// Back substitution: Lᵀ x = z.
	xs := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * xs[k]
		}
		xs[i] = sum / l[i*n+i]
	}
	return xs, nil
}
