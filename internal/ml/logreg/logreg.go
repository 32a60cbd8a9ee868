// Package logreg implements logistic regression trained with L-BFGS —
// the first of the paper's two evaluation workloads. The objective
// streams the (possibly memory-mapped) data matrix row by row once
// per evaluation, so each L-BFGS iteration performs the sequential
// full-data scans whose paging behaviour Figure 1a measures.
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

// Options configures binary logistic regression training.
type Options struct {
	// FitOptions carries the shared training surface: worker-pool
	// override, iteration callback, verbosity.
	fit.FitOptions
	// Lambda is the L2 regularization strength (default 1e-4).
	Lambda float64
	// FitIntercept adds an unregularized bias term (default true via
	// NoIntercept=false).
	NoIntercept bool
	// MaxIterations bounds L-BFGS iterations (default 100; the
	// paper's experiments run exactly 10).
	MaxIterations int
	// GradTol is the L-BFGS gradient tolerance (default 1e-6).
	GradTol float64
}

func (o Options) withDefaults() Options {
	if o.Lambda == 0 {
		o.Lambda = 1e-4
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	return o
}

// Model is a trained binary logistic regression classifier.
type Model struct {
	// Weights has one coefficient per feature.
	Weights []float64
	// Intercept is the bias term (0 when trained without one).
	Intercept float64
	// Result is the optimizer outcome.
	Result optimize.Result
}

// Objective is the regularized negative log-likelihood of binary
// logistic regression over a data matrix. It implements
// optimize.Objective; the parameter vector is [w₀..w_{d-1}, b] when
// intercept is enabled, [w₀..w_{d-1}] otherwise.
type Objective struct {
	x         *mat.Dense
	y         []float64
	lambda    float64
	intercept bool
	// Stall accumulates simulated paging stall seconds across Evals
	// (zero on real backends).
	Stall float64
	// Scans counts full passes over the data.
	Scans int
}

// NewObjective validates shapes and constructs the streaming
// objective. Labels must be 0 or 1.
func NewObjective(x *mat.Dense, y []float64, lambda float64, intercept bool) (*Objective, error) {
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("logreg: %d rows but %d labels", x.Rows(), len(y))
	}
	for i, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("logreg: label[%d] = %v, want 0 or 1", i, v)
		}
	}
	if lambda < 0 {
		return nil, fmt.Errorf("logreg: negative lambda %v", lambda)
	}
	return &Objective{x: x, y: y, lambda: lambda, intercept: intercept}, nil
}

// Dim returns the parameter count (features + optional bias).
func (o *Objective) Dim() int {
	d := o.x.Cols()
	if o.intercept {
		d++
	}
	return d
}

// Eval computes the mean negative log-likelihood plus L2 penalty and
// its gradient, streaming the data matrix exactly once.
func (o *Objective) Eval(params, grad []float64) float64 {
	d := o.x.Cols()
	w := params[:d]
	var b float64
	if o.intercept {
		b = params[d]
	}
	blas.Fill(grad, 0)
	gw := grad[:d]
	var gb, loss float64

	stall := o.x.ForEachRow(func(i int, row []float64) {
		z := blas.Dot(row, w) + b
		// Numerically stable: log(1+e^{-|z|}) + max(0, ±z).
		var p float64
		if z >= 0 {
			ez := math.Exp(-z)
			p = 1 / (1 + ez)
			if o.y[i] == 1 {
				loss += math.Log1p(ez)
			} else {
				loss += z + math.Log1p(ez)
			}
		} else {
			ez := math.Exp(z)
			p = ez / (1 + ez)
			if o.y[i] == 1 {
				loss += -z + math.Log1p(ez)
			} else {
				loss += math.Log1p(ez)
			}
		}
		diff := p - o.y[i]
		blas.Axpy(diff, row, gw)
		gb += diff
	})
	o.Stall += stall
	o.Scans++

	n := float64(o.x.Rows())
	loss /= n
	blas.Scal(1/n, gw)
	if o.intercept {
		grad[d] = gb / n
	}
	// L2 penalty on weights only (not the intercept), matching
	// standard practice and mlpack.
	loss += 0.5 * o.lambda * blas.Dot(w, w)
	blas.Axpy(o.lambda, w, gw)
	return loss
}

// Train fits a binary logistic regression model with L-BFGS on x
// with 0/1 labels y. Every objective evaluation is one blocked,
// worker-pooled pass over the (possibly memory-mapped) data; the model
// is bit-identical for every worker count and every storage backend.
// ctx cancels the fit within one data block (the returned error is
// then ctx.Err()).
func Train(ctx context.Context, x *mat.Dense, y []float64, opts Options) (*Model, error) {
	return TrainPlane(ctx, exec.Local(x, y, opts.Workers), preprocess.BinaryRule{}, opts)
}

// TrainPlane is Train over a plane's rows, with 0/1 targets derived
// from the raw labels by rule.
func TrainPlane(ctx context.Context, pl exec.Plane, rule preprocess.BinaryRule, opts Options) (*Model, error) {
	o := opts.withDefaults()
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	obj, err := NewParallelObjective(ctx, pl, rule, o.Lambda, !o.NoIntercept)
	if err != nil {
		return nil, err
	}
	res, err := optimize.LBFGS(ctx, obj, make([]float64, obj.Dim()), optimize.LBFGSParams{
		MaxIterations: o.MaxIterations,
		GradTol:       o.GradTol,
		Callback:      o.Hook("logreg"),
	})
	if obj.Err != nil {
		return nil, obj.Err
	}
	if err != nil {
		return nil, err
	}
	d := obj.pass.D
	m := &Model{Weights: res.X[:d], Result: res}
	if !o.NoIntercept {
		m.Intercept = res.X[d]
	}
	return m, nil
}

// DecisionFunction returns the raw score w·row + b.
func (m *Model) DecisionFunction(row []float64) float64 {
	return blas.Dot(row, m.Weights) + m.Intercept
}

// Prob returns P(y=1 | row).
func (m *Model) Prob(row []float64) float64 {
	z := m.DecisionFunction(row)
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	ez := math.Exp(z)
	return ez / (1 + ez)
}

// Predict returns the hard 0/1 label for row.
func (m *Model) Predict(row []float64) float64 {
	if m.DecisionFunction(row) >= 0 {
		return 1
	}
	return 0
}

// Accuracy scores the model on a labelled matrix.
func (m *Model) Accuracy(x *mat.Dense, y []float64) float64 {
	if x.Rows() == 0 {
		return 0
	}
	correct := 0
	x.ForEachRow(func(i int, row []float64) {
		//m3vet:allow floateq -- predictions and labels are exact class ids
		if m.Predict(row) == y[i] {
			correct++
		}
	})
	return float64(correct) / float64(x.Rows())
}
