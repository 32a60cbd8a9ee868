// Package preprocess provides feature scaling and label utilities
// fitted in single streaming passes, so preprocessing a memory-mapped
// dataset costs exactly one scan — the same currency every other M3
// stage is priced in.
//
// The fitting scans run blocked on the shared chunked-execution layer
// (internal/exec): each block accumulates its own moments (Welford) or
// extrema, and per-block partials merge in ascending block order with
// the parallel-moments combine of Chan et al. — so fitted scalers are
// bit-identical for every worker count and every storage backend.
package preprocess

import (
	"context"
	"errors"
	"fmt"
	"math"

	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
)

func init() {
	exec.RegisterPass[*moments](momentsPass{})
	exec.RegisterPass[*extrema](extremaPass{})
}

// Options configures a fitting scan.
type Options struct {
	// FitOptions carries the shared training surface; only Workers is
	// consulted (<= 0: engine hint, then NumCPU).
	fit.FitOptions
}

// StandardScaler centers features to zero mean and unit variance.
type StandardScaler struct {
	// Mean and Std are per-feature statistics; Std entries are
	// floored at a small epsilon so constant features map to zero.
	Mean []float64
	Std  []float64
}

// moments is one merge group's (or block's) share of the per-feature
// running statistics (Welford within the block, Chan-style combine
// across blocks). Fields are exported for gob.
type moments struct {
	Count float64
	Mean  []float64
	M2    []float64
}

// newMoments returns a zero moments state for d features.
func newMoments(d int) *moments {
	return &moments{Mean: make([]float64, d), M2: make([]float64, d)}
}

// Add accumulates one row (Welford update).
func (m *moments) Add(row []float64) {
	m.Count++
	for j, v := range row {
		delta := v - m.Mean[j]
		m.Mean[j] += delta / m.Count
		m.M2[j] += delta * (v - m.Mean[j])
	}
}

// mergeMoments folds src into dst with the parallel-variance combine
// (Chan, Golub & LeVeque): exact for counts, associative enough that
// the fixed block-order reduction is deterministic.
func mergeMoments(dst, src *moments) {
	if src.Count == 0 {
		return
	}
	if dst.Count == 0 {
		dst.Count = src.Count
		copy(dst.Mean, src.Mean)
		copy(dst.M2, src.M2)
		return
	}
	n := dst.Count + src.Count
	for j := range dst.Mean {
		delta := src.Mean[j] - dst.Mean[j]
		dst.Mean[j] += delta * src.Count / n
		dst.M2[j] += src.M2[j] + delta*delta*dst.Count*src.Count/n
	}
	dst.Count = n
}

// momentsPass is the standard scaler's single data pass over rows of
// width D.
type momentsPass struct{ D int }

func (p momentsPass) Zero() *moments          { return newMoments(p.D) }
func (p momentsPass) Merge(dst, src *moments) { mergeMoments(dst, src) }

func (p momentsPass) Bind(_ *exec.Shard, scan *exec.RowScan) (exec.Kernel[*moments], error) {
	if err := checkWidth(p.D, scan.Cols); err != nil {
		return nil, err
	}
	scan.Name = "scaler moments"
	d := p.D
	return func(m *moments, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			m.Add(block[(i-lo)*stride : (i-lo)*stride+d])
		}
	}, nil
}

// checkWidth rejects a pass built for rows of width d on rows of width
// cols.
func checkWidth(d, cols int) error {
	if d != cols {
		return fmt.Errorf("preprocess: pass for %d features on rows of %d", d, cols)
	}
	return nil
}

// FitStandard computes per-feature mean and standard deviation in one
// blocked scan (per-block Welford, numerically stable for long
// streams; block partials merge in ascending block order). ctx cancels
// the scan within one data block.
func FitStandard(ctx context.Context, x *mat.Dense, opts Options) (*StandardScaler, error) {
	return FitStandardPlane(ctx, exec.Local(x, nil, opts.Workers))
}

// FitStandardPlane is FitStandard over a plane's rows.
func FitStandardPlane(ctx context.Context, pl exec.Plane) (*StandardScaler, error) {
	n, d := pl.Dims()
	if n < 2 {
		return nil, fmt.Errorf("preprocess: need >= 2 rows, got %d", n)
	}
	acc, _, err := exec.Reduce(ctx, pl, momentsPass{D: d})
	if err != nil {
		return nil, err
	}
	std := make([]float64, d)
	for j := range std {
		std[j] = math.Sqrt(acc.M2[j] / acc.Count)
		if std[j] < 1e-12 {
			std[j] = 1 // constant feature: leave centered at zero
		}
	}
	return &StandardScaler{Mean: acc.Mean, Std: std}, nil
}

// TransformRow standardizes one row in place.
func (s *StandardScaler) TransformRow(row []float64) {
	if len(row) != len(s.Mean) {
		panic(fmt.Sprintf("preprocess: row has %d features, scaler has %d", len(row), len(s.Mean)))
	}
	for j := range row {
		row[j] = (row[j] - s.Mean[j]) / s.Std[j]
	}
}

// Transform standardizes every row of a writable matrix in place
// (one scan).
func (s *StandardScaler) Transform(x *mat.Dense) error {
	_, d := x.Dims()
	if d != len(s.Mean) {
		return fmt.Errorf("preprocess: matrix has %d features, scaler has %d", d, len(s.Mean))
	}
	if !x.Store().Writable() {
		return fmt.Errorf("preprocess: matrix store is read-only")
	}
	x.ForEachRow(func(i int, row []float64) {
		s.TransformRow(row)
	})
	return nil
}

// InCols, OutCols and BlockKernel make the scaler a fused pipeline
// stage (core.Stage): each worker's kernel standardizes a row into its
// buffer.
func (s *StandardScaler) InCols() int  { return len(s.Mean) }
func (s *StandardScaler) OutCols() int { return len(s.Mean) }
func (s *StandardScaler) BlockKernel() exec.RowKernel {
	return func(dst, src []float64) []float64 {
		copy(dst, src)
		s.TransformRow(dst)
		return dst
	}
}

// Validate reports statistics that do not describe one row width, so
// a stage decoded off the wire is checked before it is fused.
func (s *StandardScaler) Validate() error {
	if s == nil || len(s.Mean) == 0 || len(s.Std) != len(s.Mean) {
		return errors.New("preprocess: malformed standard scaler")
	}
	return nil
}

// MinMaxScaler maps features into [0, 1] by observed range.
type MinMaxScaler struct {
	// Min and Range are per-feature; Range entries are floored so
	// constant features map to zero.
	Min   []float64
	Range []float64
}

// extrema is one merge group's (or block's) per-feature minima and
// maxima. Fields are exported for gob.
type extrema struct {
	Lo, Hi []float64
}

// newExtrema returns an identity extrema state for d features.
func newExtrema(d int) *extrema {
	e := &extrema{Lo: make([]float64, d), Hi: make([]float64, d)}
	for j := 0; j < d; j++ {
		e.Lo[j] = math.Inf(1)
		e.Hi[j] = math.Inf(-1)
	}
	return e
}

// Add accumulates one row.
func (e *extrema) Add(row []float64) {
	for j, v := range row {
		if v < e.Lo[j] {
			e.Lo[j] = v
		}
		if v > e.Hi[j] {
			e.Hi[j] = v
		}
	}
}

// mergeExtrema folds src into dst (min/max are exactly associative).
func mergeExtrema(dst, src *extrema) {
	for j := range dst.Lo {
		if src.Lo[j] < dst.Lo[j] {
			dst.Lo[j] = src.Lo[j]
		}
		if src.Hi[j] > dst.Hi[j] {
			dst.Hi[j] = src.Hi[j]
		}
	}
}

// extremaPass is the min-max scaler's single data pass over rows of
// width D.
type extremaPass struct{ D int }

func (p extremaPass) Zero() *extrema          { return newExtrema(p.D) }
func (p extremaPass) Merge(dst, src *extrema) { mergeExtrema(dst, src) }

func (p extremaPass) Bind(_ *exec.Shard, scan *exec.RowScan) (exec.Kernel[*extrema], error) {
	if err := checkWidth(p.D, scan.Cols); err != nil {
		return nil, err
	}
	scan.Name = "minmax extrema"
	d := p.D
	return func(e *extrema, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			e.Add(block[(i-lo)*stride : (i-lo)*stride+d])
		}
	}, nil
}

// FitMinMax computes per-feature minima and ranges in one blocked scan
// (per-block extrema merge elementwise in block order — min and max
// are exactly associative, so the result equals the sequential scan
// bit for bit). ctx cancels the scan within one data block.
func FitMinMax(ctx context.Context, x *mat.Dense, opts Options) (*MinMaxScaler, error) {
	return FitMinMaxPlane(ctx, exec.Local(x, nil, opts.Workers))
}

// FitMinMaxPlane is FitMinMax over a plane's rows.
func FitMinMaxPlane(ctx context.Context, pl exec.Plane) (*MinMaxScaler, error) {
	n, d := pl.Dims()
	if n < 1 {
		return nil, fmt.Errorf("preprocess: empty matrix")
	}
	acc, _, err := exec.Reduce(ctx, pl, extremaPass{D: d})
	if err != nil {
		return nil, err
	}
	rng := make([]float64, d)
	for j := range rng {
		rng[j] = acc.Hi[j] - acc.Lo[j]
		if rng[j] < 1e-12 {
			rng[j] = 1
		}
	}
	return &MinMaxScaler{Min: acc.Lo, Range: rng}, nil
}

// TransformRow rescales one row in place.
func (s *MinMaxScaler) TransformRow(row []float64) {
	if len(row) != len(s.Min) {
		panic(fmt.Sprintf("preprocess: row has %d features, scaler has %d", len(row), len(s.Min)))
	}
	for j := range row {
		row[j] = (row[j] - s.Min[j]) / s.Range[j]
	}
}

// InCols, OutCols and BlockKernel make the scaler a fused pipeline
// stage (core.Stage).
func (s *MinMaxScaler) InCols() int  { return len(s.Min) }
func (s *MinMaxScaler) OutCols() int { return len(s.Min) }
func (s *MinMaxScaler) BlockKernel() exec.RowKernel {
	return func(dst, src []float64) []float64 {
		copy(dst, src)
		s.TransformRow(dst)
		return dst
	}
}

// Validate reports statistics that do not describe one row width.
func (s *MinMaxScaler) Validate() error {
	if s == nil || len(s.Min) == 0 || len(s.Range) != len(s.Min) {
		return errors.New("preprocess: malformed min-max scaler")
	}
	return nil
}

// BinaryRule turns raw labels into 0/1 targets: with Binarize set,
// labels equal to Positive become 1 and all others 0 (the paper's
// "digit d vs rest" tasks); otherwise labels must already be 0 or 1.
type BinaryRule struct {
	Binarize bool
	Positive float64
}

// Targets returns the shard's 0/1 targets, derived once per fit.
func (r BinaryRule) Targets(sh *exec.Shard) ([]float64, error) {
	return exec.Cached(sh, r, func() ([]float64, error) {
		y, err := RawLabels(sh)
		if err != nil {
			return nil, err
		}
		if r.Binarize {
			return BinaryLabels(y, r.Positive), nil
		}
		for i, v := range y {
			if v != 0 && v != 1 {
				return nil, fmt.Errorf("preprocess: label[%d] = %v, want 0 or 1", sh.Lo+i, v)
			}
		}
		return y, nil
	})
}

// classKey caches a shard's class ids by class count.
type classKey int

// ClassIDs returns the shard's labels as class ids in [0, classes),
// derived once per fit.
func ClassIDs(sh *exec.Shard, classes int) ([]int, error) {
	return exec.Cached(sh, classKey(classes), func() ([]int, error) {
		raw, err := RawLabels(sh)
		if err != nil {
			return nil, err
		}
		y, err := IntLabels(raw, classes)
		if err != nil && sh.Lo > 0 {
			err = fmt.Errorf("rows from %d: %w", sh.Lo, err)
		}
		return y, err
	})
}

// RawLabels returns the shard's labels, checking there is one per row.
func RawLabels(sh *exec.Shard) ([]float64, error) {
	n, _ := sh.X.Dims()
	if sh.Labels == nil {
		return nil, errors.New("preprocess: dataset has no labels")
	}
	if len(sh.Labels) != n {
		return nil, fmt.Errorf("preprocess: %d rows but %d labels", n, len(sh.Labels))
	}
	return sh.Labels, nil
}

// BinaryLabels converts multiclass labels to a 0/1 vector marking the
// positive class — the "digit d vs rest" tasks of the experiments.
func BinaryLabels(labels []float64, positive float64) []float64 {
	out := make([]float64, len(labels))
	for i, v := range labels {
		//m3vet:allow floateq -- class labels are exact ids, never computed
		if v == positive {
			out[i] = 1
		}
	}
	return out
}

// FloatLabels converts class ids to the raw float label form a
// dataset file carries.
func FloatLabels(y []int) []float64 {
	out := make([]float64, len(y))
	for i, c := range y {
		out[i] = float64(c)
	}
	return out
}

// IntLabels converts float labels to ints, validating they are whole
// numbers within [0, classes).
func IntLabels(labels []float64, classes int) ([]int, error) {
	out := make([]int, len(labels))
	for i, v := range labels {
		n := int(v)
		//m3vet:allow floateq -- integrality check: exact comparison is the test
		if float64(n) != v || n < 0 || n >= classes {
			return nil, fmt.Errorf("preprocess: label[%d] = %v not an integer in [0,%d)", i, v, classes)
		}
		out[i] = n
	}
	return out, nil
}
