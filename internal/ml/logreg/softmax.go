package logreg

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

func init() { exec.RegisterPass[*softmaxPartial](softmaxPass{}) }

// SoftmaxObjective is the multinomial (softmax) generalization used
// for the 10-class digit problem, over the rows of a plane: every Eval
// is one softmaxPass. Parameters are a row-major K×D weight block
// followed by K biases when intercept is enabled. A failed pass is
// kept in Err and turns the loss into NaN (see ParallelObjective).
type SoftmaxObjective struct {
	ctx    context.Context
	plane  exec.Plane
	pass   softmaxPass
	n      int
	lambda float64

	// Err is the first pass failure.
	Err error
	// Stall accumulates simulated paging stall seconds.
	Stall float64
	// Scans counts full data passes.
	Scans int
}

// NewSoftmaxObjective returns the objective over pl's rows, whose raw
// labels must be class ids in [0, classes). ctx cancels its scans
// within one block.
func NewSoftmaxObjective(ctx context.Context, pl exec.Plane, classes int, lambda float64, intercept bool) (*SoftmaxObjective, error) {
	if classes < 2 {
		return nil, fmt.Errorf("logreg: need >= 2 classes, got %d", classes)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("logreg: negative lambda %v", lambda)
	}
	n, d := pl.Dims()
	return &SoftmaxObjective{
		ctx: ctx, plane: pl, n: n, lambda: lambda,
		pass: softmaxPass{D: d, Classes: classes, Intercept: intercept},
	}, nil
}

// Dim returns K*D (+K with intercept).
func (o *SoftmaxObjective) Dim() int { return o.pass.dim() }

// Eval computes mean cross-entropy plus L2 penalty in one pass over
// the plane.
func (o *SoftmaxObjective) Eval(params, grad []float64) float64 {
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
	return finishSoftmax(total, o.n, p.D, p.Classes, o.lambda, p.Intercept, params, grad)
}

// softmaxPartial is one merge group's (or block's) share of the
// cross-entropy loss and gradient. The scores scratch is per state and
// unexported, so gob ships only the aggregate fields.
type softmaxPartial struct {
	Loss   float64
	Grad   []float64
	scores []float64
}

// softmaxPass evaluates the softmax objective at Params over rows of
// width D with Classes classes.
type softmaxPass struct {
	Params     []float64
	D, Classes int
	Intercept  bool
}

// dim returns the parameter count: K×D weights plus K biases.
func (p softmaxPass) dim() int {
	if p.Intercept {
		return (p.D + 1) * p.Classes
	}
	return p.D * p.Classes
}

func (p softmaxPass) Zero() *softmaxPartial {
	return &softmaxPartial{Grad: make([]float64, p.dim()), scores: make([]float64, p.Classes)}
}

func (p softmaxPass) Merge(dst, src *softmaxPartial) {
	dst.Loss += src.Loss
	blas.Axpy(1, src.Grad, dst.Grad)
}

func (p softmaxPass) Bind(sh *exec.Shard, scan *exec.RowScan) (exec.Kernel[*softmaxPartial], error) {
	if p.Classes < 2 || p.Classes > len(p.Params) {
		return nil, fmt.Errorf("logreg: %d classes for %d parameters", p.Classes, len(p.Params))
	}
	if err := checkDims(len(p.Params), p.dim(), p.D, scan.Cols); err != nil {
		return nil, err
	}
	y, err := preprocess.ClassIDs(sh, p.Classes)
	if err != nil {
		return nil, err
	}
	scan.Name = "softmax grad"
	d, k := p.D, p.Classes
	wAll := p.Params[:k*d]
	var bias []float64
	if p.Intercept {
		bias = p.Params[k*d : k*d+k]
	}
	return func(s *softmaxPartial, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			softmaxRow(s, y[i], wAll, bias, block[(i-lo)*stride:(i-lo)*stride+d], d, k)
		}
	}, nil
}

// softmaxRow accumulates one row of class yi at the given parameter
// block (wAll row-major K×D, bias nil without intercept).
func softmaxRow(p *softmaxPartial, yi int, wAll, bias, row []float64, d, k int) {
	gw := p.Grad[:k*d]
	// scores_c = w_c · row + b_c
	maxScore := math.Inf(-1)
	for c := 0; c < k; c++ {
		s := blas.Dot(wAll[c*d:(c+1)*d], row)
		if bias != nil {
			s += bias[c]
		}
		p.scores[c] = s
		if s > maxScore {
			maxScore = s
		}
	}
	// log-sum-exp with max shift
	var sum float64
	for c := 0; c < k; c++ {
		p.scores[c] = math.Exp(p.scores[c] - maxScore)
		sum += p.scores[c]
	}
	logSum := math.Log(sum) + maxScore
	// loss_i = logSum - score_{yi}; recover shifted score.
	p.Loss += logSum - (math.Log(p.scores[yi]) + maxScore)
	inv := 1 / sum
	for c := 0; c < k; c++ {
		prob := p.scores[c] * inv
		diff := prob
		if c == yi {
			diff -= 1
		}
		if diff != 0 {
			blas.Axpy(diff, row, gw[c*d:(c+1)*d])
			if bias != nil {
				p.Grad[k*d+c] += diff
			}
		}
	}
}

// finishSoftmax turns the folded total into the mean regularized loss
// and gradient.
func finishSoftmax(total *softmaxPartial, n, d, k int, lambda float64, intercept bool, params, grad []float64) float64 {
	wAll := params[:k*d]
	blas.Fill(grad, 0)
	gw := grad[:k*d]
	nf := float64(n)
	loss := total.Loss / nf
	blas.AddScaled(gw, gw, 1/nf, total.Grad[:k*d])
	if intercept {
		gb := grad[k*d : k*d+k]
		blas.AddScaled(gb, gb, 1/nf, total.Grad[k*d:k*d+k])
	}
	loss += 0.5 * lambda * blas.Dot(wAll, wAll)
	blas.Axpy(lambda, wAll, gw)
	return loss
}

// SoftmaxModel is a trained multiclass classifier.
type SoftmaxModel struct {
	// Weights is row-major K×D.
	Weights []float64
	// Bias has one entry per class (nil without intercept).
	Bias []float64
	// Classes is K.
	Classes int
	// Features is D.
	Features int
	// Result is the optimizer outcome.
	Result optimize.Result
}

// TrainSoftmax fits a K-class softmax regression model with L-BFGS on
// blocked, worker-pooled data scans; labels must be in [0, classes).
// ctx cancels the fit within one data block.
func TrainSoftmax(ctx context.Context, x *mat.Dense, y []int, classes int, opts Options) (*SoftmaxModel, error) {
	return TrainSoftmaxPlane(ctx, exec.Local(x, preprocess.FloatLabels(y), opts.Workers), classes, opts)
}

// TrainSoftmaxPlane is TrainSoftmax over a plane's rows.
func TrainSoftmaxPlane(ctx context.Context, pl exec.Plane, classes int, opts Options) (*SoftmaxModel, error) {
	o := opts.withDefaults()
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	obj, err := NewSoftmaxObjective(ctx, pl, classes, o.Lambda, !o.NoIntercept)
	if err != nil {
		return nil, err
	}
	res, err := optimize.LBFGS(ctx, obj, make([]float64, obj.Dim()), optimize.LBFGSParams{
		MaxIterations: o.MaxIterations,
		GradTol:       o.GradTol,
		Callback:      o.Hook("softmax"),
	})
	if obj.Err != nil {
		return nil, obj.Err
	}
	if err != nil {
		return nil, err
	}
	d := obj.pass.D
	m := &SoftmaxModel{
		Weights: res.X[:classes*d], Classes: classes, Features: d, Result: res,
	}
	if !o.NoIntercept {
		m.Bias = res.X[classes*d : classes*d+classes]
	}
	return m, nil
}

// Scores writes per-class raw scores for row into dst (length K).
func (m *SoftmaxModel) Scores(row []float64, dst []float64) {
	for c := 0; c < m.Classes; c++ {
		s := blas.Dot(m.Weights[c*m.Features:(c+1)*m.Features], row)
		if m.Bias != nil {
			s += m.Bias[c]
		}
		dst[c] = s
	}
}

// Predict returns the argmax class for row.
func (m *SoftmaxModel) Predict(row []float64) int {
	best, bestC := math.Inf(-1), 0
	for c := 0; c < m.Classes; c++ {
		s := blas.Dot(m.Weights[c*m.Features:(c+1)*m.Features], row)
		if m.Bias != nil {
			s += m.Bias[c]
		}
		if s > best {
			best, bestC = s, c
		}
	}
	return bestC
}

// Accuracy scores the model on a labelled matrix.
func (m *SoftmaxModel) Accuracy(x *mat.Dense, y []int) float64 {
	if x.Rows() == 0 {
		return 0
	}
	correct := 0
	x.ForEachRow(func(i int, row []float64) {
		if m.Predict(row) == y[i] {
			correct++
		}
	})
	return float64(correct) / float64(x.Rows())
}
