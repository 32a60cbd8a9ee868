// Package bayes implements Gaussian naive Bayes classification.
// Training is a single streaming pass computing per-class feature
// means and variances — the cheapest possible M3 workload (one scan
// total, against one scan *per iteration* for the optimizers), which
// makes it a useful lower-bound baseline in scan-count ablations.
package bayes

import (
	"context"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/ml/preprocess"
)

// Options configures training.
type Options struct {
	// FitOptions carries the shared training surface; Workers sizes
	// the counting scan's pool (<= 0: engine hint, then NumCPU). The
	// fitted model is identical for every value.
	fit.FitOptions
	// VarSmoothing is added to every variance for numerical safety,
	// scaled by the largest feature variance (default 1e-9, the
	// scikit-learn convention).
	VarSmoothing float64
}

func (o Options) withDefaults() Options {
	if o.VarSmoothing <= 0 {
		o.VarSmoothing = 1e-9
	}
	return o
}

// Model is a fitted Gaussian naive Bayes classifier.
type Model struct {
	// Classes is the class count.
	Classes int
	// Features is the feature count.
	Features int
	// Mean is row-major Classes×Features.
	Mean []float64
	// Var is row-major Classes×Features (smoothed).
	Var []float64
	// LogPrior has one entry per class.
	LogPrior []float64
}

func init() { exec.RegisterPass[*countPartial](countPass{}) }

// Train fits the model in one pass over x. Labels must be integers in
// [0, classes). ctx cancels the counting scan within one data block.
func Train(ctx context.Context, x *mat.Dense, y []int, classes int, opts Options) (*Model, error) {
	return TrainPlane(ctx, exec.Local(x, preprocess.FloatLabels(y), opts.Workers), classes, opts)
}

// TrainPlane is Train over a plane's rows: a single counting pass
// accumulates per-class count, sum and sum-of-squares partials, merged
// in row order so the model is identical for any worker or shard
// count.
func TrainPlane(ctx context.Context, pl exec.Plane, classes int, opts Options) (*Model, error) {
	o := opts.withDefaults()
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	if classes < 2 {
		return nil, fmt.Errorf("bayes: need >= 2 classes, got %d", classes)
	}
	n, d := pl.Dims()
	acc, _, err := exec.Reduce(ctx, pl, countPass{Classes: classes, D: d})
	if err != nil {
		return nil, err
	}
	m := &Model{
		Classes:  classes,
		Features: d,
		Mean:     make([]float64, classes*d),
		Var:      make([]float64, classes*d),
		LogPrior: make([]float64, classes),
	}
	counts, sum, sumSq := acc.Counts, acc.Sum, acc.SumSq
	var maxVar float64
	for c := 0; c < classes; c++ {
		if counts[c] == 0 {
			return nil, fmt.Errorf("bayes: class %d has no examples", c)
		}
		m.LogPrior[c] = math.Log(counts[c] / float64(n))
		base := c * d
		for j := 0; j < d; j++ {
			mean := sum[base+j] / counts[c]
			variance := sumSq[base+j]/counts[c] - mean*mean
			if variance < 0 {
				variance = 0 // numerical floor
			}
			m.Mean[base+j] = mean
			m.Var[base+j] = variance
			if variance > maxVar {
				maxVar = variance
			}
		}
	}
	eps := o.VarSmoothing * math.Max(maxVar, 1e-12)
	for i := range m.Var {
		m.Var[i] += eps
	}
	return m, nil
}

// countPartial is one merge group's (or block's) share of the class
// statistics. Fields are exported for gob.
type countPartial struct {
	Counts, Sum, SumSq []float64
}

// maxClasses bounds a counting pass's class count: the state it
// allocates grows with it, and no data bounds it the way shipped
// parameters bound the other passes.
const maxClasses = 1 << 16

// countPass is the single counting scan over rows of width D.
type countPass struct{ Classes, D int }

func (p countPass) Zero() *countPartial {
	return &countPartial{
		Counts: make([]float64, p.Classes),
		Sum:    make([]float64, p.Classes*p.D),
		SumSq:  make([]float64, p.Classes*p.D),
	}
}

func (p countPass) Merge(dst, src *countPartial) {
	blas.Axpy(1, src.Counts, dst.Counts)
	blas.Axpy(1, src.Sum, dst.Sum)
	blas.Axpy(1, src.SumSq, dst.SumSq)
}

func (p countPass) Bind(sh *exec.Shard, scan *exec.RowScan) (exec.Kernel[*countPartial], error) {
	if p.D != scan.Cols || p.Classes < 2 || p.Classes > maxClasses {
		return nil, fmt.Errorf("bayes: %d-class pass for %d features, on rows of %d", p.Classes, p.D, scan.Cols)
	}
	y, err := preprocess.ClassIDs(sh, p.Classes)
	if err != nil {
		return nil, err
	}
	scan.Name = "bayes moments"
	d := p.D
	return func(cp *countPartial, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			c := y[i]
			cp.Counts[c]++
			base := c * d
			for j, v := range block[(i-lo)*stride : (i-lo)*stride+d] {
				cp.Sum[base+j] += v
				cp.SumSq[base+j] += v * v
			}
		}
	}, nil
}

// LogScores writes per-class joint log-likelihoods into dst
// (length Classes).
func (m *Model) LogScores(row []float64, dst []float64) {
	if len(row) != m.Features || len(dst) != m.Classes {
		panic(fmt.Sprintf("bayes: shapes row=%d dst=%d model=(%d,%d)", len(row), len(dst), m.Features, m.Classes))
	}
	for c := 0; c < m.Classes; c++ {
		base := c * m.Features
		s := m.LogPrior[c]
		for j, v := range row {
			diff := v - m.Mean[base+j]
			s += -0.5 * (math.Log(2*math.Pi*m.Var[base+j]) + diff*diff/m.Var[base+j])
		}
		dst[c] = s
	}
}

// Predict returns the maximum-a-posteriori class.
func (m *Model) Predict(row []float64) int {
	scores := make([]float64, m.Classes)
	m.LogScores(row, scores)
	best, bestC := math.Inf(-1), 0
	for c, s := range scores {
		if s > best {
			best, bestC = s, c
		}
	}
	return bestC
}

// Accuracy scores the model over a labelled matrix (one scan).
func (m *Model) Accuracy(x *mat.Dense, y []int) float64 {
	if x.Rows() == 0 {
		return 0
	}
	scores := make([]float64, m.Classes)
	correct := 0
	x.ForEachRow(func(i int, row []float64) {
		m.LogScores(row, scores)
		best, bestC := math.Inf(-1), 0
		for c, s := range scores {
			if s > best {
				best, bestC = s, c
			}
		}
		if bestC == y[i] {
			correct++
		}
	})
	return float64(correct) / float64(x.Rows())
}
