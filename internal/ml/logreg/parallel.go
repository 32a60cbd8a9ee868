package logreg

import (
	"context"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/ml/preprocess"
)

func init() { exec.RegisterPass[*gradPartial](gradPass{}) }

// ParallelObjective is the binary logistic loss over the rows of a
// plane: every Eval is one gradPass — a blocked scan on one process,
// or a broadcast round on a cluster — whose partials fold in global
// row order, so L-BFGS takes the same steps on every plane, worker
// count and storage backend. A failed pass (cancellation, bad labels,
// a lost worker) is kept in Err and turns the loss into NaN, which
// stops the optimizer; drivers check Err first.
type ParallelObjective struct {
	ctx    context.Context
	plane  exec.Plane
	pass   gradPass
	n      int
	lambda float64

	// Err is the first pass failure.
	Err error
	// Stall accumulates simulated paging stall seconds across Evals.
	Stall float64
	// Scans counts full passes over the data.
	Scans int
}

// NewParallelObjective returns the objective over pl's rows, with 0/1
// targets derived from the raw labels by rule. ctx cancels its scans
// within one block.
func NewParallelObjective(ctx context.Context, pl exec.Plane, rule preprocess.BinaryRule, lambda float64, intercept bool) (*ParallelObjective, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("logreg: negative lambda %v", lambda)
	}
	n, d := pl.Dims()
	return &ParallelObjective{
		ctx: ctx, plane: pl, n: n, lambda: lambda,
		pass: gradPass{D: d, Intercept: intercept, Rule: rule},
	}, nil
}

// Dim returns the parameter count.
func (o *ParallelObjective) Dim() int { return o.pass.dim() }

// Eval computes the loss and gradient with one pass over the plane.
func (o *ParallelObjective) Eval(params, grad []float64) float64 {
	if o.Err != nil {
		return math.NaN()
	}
	p := o.pass
	p.Params = params
	total, stall, err := exec.Reduce(o.ctx, o.plane, p)
	o.Stall += stall
	o.Scans++
	if err != nil {
		o.Err = err
		return math.NaN()
	}
	return finishGrad(total, o.n, p.D, o.lambda, p.Intercept, params, grad)
}

// gradPartial is one merge group's (or block's) contribution to the
// binary logistic loss and gradient. Fields are exported for gob.
type gradPartial struct {
	Loss float64
	Grad []float64 // d weights then bias
}

// gradPass evaluates the binary logistic objective at Params over
// rows of width D, with targets derived by Rule.
type gradPass struct {
	Params    []float64
	D         int
	Intercept bool
	Rule      preprocess.BinaryRule
}

// dim returns the parameter count: D weights plus the intercept.
func (p gradPass) dim() int {
	if p.Intercept {
		return p.D + 1
	}
	return p.D
}

func (p gradPass) Zero() *gradPartial { return &gradPartial{Grad: make([]float64, p.D+1)} }

func (p gradPass) Merge(dst, src *gradPartial) {
	dst.Loss += src.Loss
	blas.Axpy(1, src.Grad, dst.Grad)
}

func (p gradPass) Bind(sh *exec.Shard, scan *exec.RowScan) (exec.Kernel[*gradPartial], error) {
	if err := checkDims(len(p.Params), p.dim(), p.D, scan.Cols); err != nil {
		return nil, err
	}
	y, err := p.Rule.Targets(sh)
	if err != nil {
		return nil, err
	}
	scan.Name = "logreg grad"
	d := p.D
	w := p.Params[:d]
	var b float64
	if p.Intercept {
		b = p.Params[d]
	}
	return func(g *gradPartial, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			row := block[(i-lo)*stride : (i-lo)*stride+d]
			z := blas.Dot(row, w) + b
			prob, l := sigmoidLoss(z, y[i])
			g.Loss += l
			diff := prob - y[i]
			blas.Axpy(diff, row, g.Grad[:d])
			g.Grad[d] += diff
		}
	}, nil
}

// checkDims rejects a pass holding n parameters where it needs want,
// or built for d features on rows of width cols.
func checkDims(n, want, d, cols int) error {
	if n != want || d != cols {
		return fmt.Errorf("logreg: %d parameters (want %d) for %d features, on rows of %d", n, want, d, cols)
	}
	return nil
}

// finishGrad turns the folded total partial into the mean regularized
// loss and gradient.
func finishGrad(total *gradPartial, n, d int, lambda float64, intercept bool, params, grad []float64) float64 {
	w := params[:d]
	blas.Fill(grad, 0)
	nf := float64(n)
	loss := total.Loss / nf
	blas.AddScaled(grad[:d], grad[:d], 1/nf, total.Grad[:d])
	if intercept {
		grad[d] = total.Grad[d] / nf
	}
	loss += 0.5 * lambda * blas.Dot(w, w)
	blas.Axpy(lambda, w, grad[:d])
	return loss
}

// sigmoidLoss returns (P(y=1|z), per-example log-loss) with the
// numerically stable split on the sign of z.
func sigmoidLoss(z, y float64) (prob, loss float64) {
	if z >= 0 {
		ez := math.Exp(-z)
		prob = 1 / (1 + ez)
		if y == 1 {
			loss = math.Log1p(ez)
		} else {
			loss = z + math.Log1p(ez)
		}
		return prob, loss
	}
	ez := math.Exp(z)
	prob = ez / (1 + ez)
	if y == 1 {
		loss = -z + math.Log1p(ez)
	} else {
		loss = math.Log1p(ez)
	}
	return prob, loss
}
