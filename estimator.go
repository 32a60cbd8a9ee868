package m3

// Estimator API v2: every M3 algorithm behind one interface pair.
//
//	est := m3.LogisticRegression{Binarize: true}
//	model, err := eng.Fit(ctx, est, tbl)   // engine-bound (heap or mmap)
//	model, err := m3.Fit(ctx, est, x, y)   // standalone heap matrices
//
// Fitting is context-aware (cancellation takes effect within one data
// block or iteration) and engine-threaded: the engine's Workers,
// store accounting and prefetch settings reach every trainer
// automatically. Concrete estimators below wrap the internal trainers;
// each returns a Fitted* model exposing the rich inner model alongside
// the uniform Model interface (Predict, PredictMatrix, Save).

import (
	"context"
	"errors"
	"fmt"
	"math"

	"m3/internal/core"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/ml/bayes"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/knn"
	"m3/internal/ml/linreg"
	"m3/internal/ml/logreg"
	"m3/internal/ml/modelio"
	"m3/internal/ml/pca"
	"m3/internal/ml/preprocess"
	"m3/internal/ml/sgd"
)

// Estimator is an unfitted algorithm configuration; Fit trains it on a
// Dataset and returns the fitted Model.
type Estimator = core.Estimator

// Model is a fitted model: Predict (single row), PredictMatrix
// (blocked parallel batch) and Save (modelio persistence).
type Model = core.Model

// Dataset carries a feature matrix, labels and the owning engine's
// execution settings into training.
type Dataset = core.Dataset

// FitOptions is the shared training surface embedded by every
// algorithm's options: Workers override, iteration Callback,
// Verbose logging.
type FitOptions = fit.FitOptions

// KNNOptions configures k-nearest-neighbor scans.
type KNNOptions = knn.Options

// BayesOptions configures Gaussian naive Bayes training.
type BayesOptions = bayes.Options

// Fit trains an estimator on a heap matrix and labels — the
// engine-less counterpart of Engine.Fit, for data that never touches a
// file. labels may be nil for unsupervised estimators.
func Fit(ctx context.Context, est Estimator, x *Matrix, labels []float64) (Model, error) {
	if est == nil {
		return nil, errors.New("m3: nil estimator")
	}
	if x == nil {
		return nil, errors.New("m3: nil matrix")
	}
	return est.Fit(ctx, &Dataset{X: x, Labels: labels})
}

// unsharded refuses a sharded dataset for an estimator that needs the
// whole matrix in one process.
func unsharded(ds *Dataset, est Estimator) error {
	if ds.Shards != nil {
		return fmt.Errorf("m3: %T cannot be trained on a cluster", est)
	}
	return nil
}

// predictRows scores every row of x with f in one blocked parallel
// scan. Each out[i] is written by exactly one worker, so the result is
// identical to a sequential scan.
func predictRows(x *Matrix, workers, wantCols int, f func(row []float64) float64) ([]float64, error) {
	if x == nil {
		return nil, errors.New("m3: nil matrix")
	}
	if x.Cols() != wantCols {
		return nil, fmt.Errorf("m3: matrix has %d features, model wants %d", x.Cols(), wantCols)
	}
	out := make([]float64, x.Rows())
	x.ForEachRowParallel(workers, func(i int, row []float64) { out[i] = f(row) })
	return out, nil
}

// --- Logistic regression ---------------------------------------------

// LogisticRegression estimates a binary classifier with L-BFGS over
// blocked parallel data scans.
type LogisticRegression struct {
	// Binarize derives 0/1 labels from the dataset by comparing each
	// label to Positive (the paper's "digit d vs rest" tasks). When
	// false, labels must already be 0 or 1.
	Binarize bool
	// Positive is the label value mapped to 1 when Binarize is set.
	Positive float64
	// Options tunes the trainer (lambda, iterations, FitOptions...).
	Options LogisticOptions
}

// Fit implements Estimator.
func (e LogisticRegression) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	rule := preprocess.BinaryRule{Binarize: e.Binarize, Positive: e.Positive}
	m, err := logreg.TrainPlane(ctx, ds.Plane(opts.Workers), rule, opts)
	if err != nil {
		return nil, err
	}
	return &FittedLogistic{LogisticModel: m, workers: opts.Workers}, nil
}

// FittedLogistic is a fitted binary classifier; the embedded
// LogisticModel exposes weights, intercept and optimizer outcome.
type FittedLogistic struct {
	*LogisticModel
	workers int
}

// PredictMatrix returns the hard 0/1 label for every row of x.
func (f *FittedLogistic) PredictMatrix(x *Matrix) ([]float64, error) {
	return predictRows(x, f.workers, len(f.Weights), f.LogisticModel.Predict)
}

// Save persists the model via modelio.
func (f *FittedLogistic) Save(path string) error {
	return modelio.SaveFile(path, f.LogisticModel)
}

// --- Softmax (multinomial) regression --------------------------------

// SoftmaxRegression estimates a K-class classifier with L-BFGS over
// blocked parallel data scans.
type SoftmaxRegression struct {
	// Classes is K; labels must be whole numbers in [0, K).
	Classes int
	// Options tunes the trainer.
	Options LogisticOptions
}

// Fit implements Estimator.
func (e SoftmaxRegression) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	m, err := logreg.TrainSoftmaxPlane(ctx, ds.Plane(opts.Workers), e.Classes, opts)
	if err != nil {
		return nil, err
	}
	return &FittedSoftmax{SoftmaxModel: m, workers: opts.Workers}, nil
}

// FittedSoftmax is a fitted multiclass classifier.
type FittedSoftmax struct {
	*SoftmaxModel
	workers int
}

// Predict returns the argmax class as a float64.
func (f *FittedSoftmax) Predict(row []float64) float64 {
	return float64(f.SoftmaxModel.Predict(row))
}

// PredictMatrix returns the argmax class for every row of x.
func (f *FittedSoftmax) PredictMatrix(x *Matrix) ([]float64, error) {
	return predictRows(x, f.workers, f.Features, f.Predict)
}

// Save persists the model via modelio.
func (f *FittedSoftmax) Save(path string) error {
	return modelio.SaveFile(path, f.SoftmaxModel)
}

// --- Linear (ridge) regression ---------------------------------------

// LinearRegression estimates a ridge regressor, either with streaming
// L-BFGS or, when Exact is set, the closed-form normal equations (one
// Gram scan + O(d³) solve).
type LinearRegression struct {
	// Exact selects the normal-equations path.
	Exact bool
	// Options tunes the trainer.
	Options LinearOptions
}

// streamingFit reports whether training is a bounded number of
// forward scans: the exact normal-equations path is one Gram scan, so
// pipelines train it straight off a fused view; L-BFGS re-scans every
// iteration and gets a materialized cache instead.
func (e LinearRegression) streamingFit() bool { return e.Exact }

// Fit implements Estimator; dataset labels are the regression targets.
func (e LinearRegression) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	var (
		m   *LinearModel
		err error
	)
	if e.Exact {
		m, err = linreg.TrainExactPlane(ctx, ds.Plane(opts.Workers), opts)
	} else {
		m, err = linreg.TrainPlane(ctx, ds.Plane(opts.Workers), opts)
	}
	if err != nil {
		return nil, err
	}
	return &FittedLinear{LinearModel: m, workers: opts.Workers}, nil
}

// FittedLinear is a fitted ridge regressor.
type FittedLinear struct {
	*LinearModel
	workers int
}

// PredictMatrix returns w·row + b for every row of x.
func (f *FittedLinear) PredictMatrix(x *Matrix) ([]float64, error) {
	return predictRows(x, f.workers, len(f.Weights), f.LinearModel.Predict)
}

// Save persists the model via modelio.
func (f *FittedLinear) Save(path string) error {
	return modelio.SaveFile(path, f.LinearModel)
}

// --- K-means ----------------------------------------------------------

// KMeansClustering estimates a k-means clustering (Lloyd's algorithm,
// k-means++ init) over blocked parallel assignment scans.
type KMeansClustering struct {
	// Options tunes the clusterer (K is required).
	Options KMeansOptions
}

// Fit implements Estimator; labels are ignored.
func (e KMeansClustering) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	res, err := kmeans.RunPlane(ctx, ds.Plane(opts.Workers), opts)
	if err != nil {
		return nil, err
	}
	return &FittedKMeans{KMeansResult: res, workers: opts.Workers}, nil
}

// MiniBatchClustering estimates a k-means clustering with Sculley-
// style mini-batch updates — the I/O-frugal choice out-of-core.
type MiniBatchClustering struct {
	// Options tunes the clusterer (K is required).
	Options MiniBatchKMeansOptions
}

// Fit implements Estimator; labels are ignored.
func (e MiniBatchClustering) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	if err := unsharded(ds, e); err != nil {
		return nil, err
	}
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	res, err := kmeans.MiniBatch(ctx, ds.X, opts)
	if err != nil {
		return nil, err
	}
	return &FittedKMeans{KMeansResult: res, workers: opts.Workers}, nil
}

// FittedKMeans is a completed clustering; the embedded KMeansResult
// exposes centroids, assignments and inertia.
type FittedKMeans struct {
	*KMeansResult
	workers int
}

// Predict returns the nearest-centroid cluster as a float64.
func (f *FittedKMeans) Predict(row []float64) float64 {
	return float64(f.KMeansResult.Predict(row))
}

// PredictMatrix returns the nearest-centroid cluster for every row.
func (f *FittedKMeans) PredictMatrix(x *Matrix) ([]float64, error) {
	return predictRows(x, f.workers, f.Centroids.Cols(), f.Predict)
}

// Save persists the centroids via modelio.
func (f *FittedKMeans) Save(path string) error {
	return modelio.SaveFile(path, f.KMeansResult)
}

// --- k-nearest neighbors ---------------------------------------------

// KNNClassifier "estimates" a k-NN classifier: fitting just validates
// and retains the reference matrix and labels; every prediction batch
// is one blocked parallel scan of the references.
type KNNClassifier struct {
	// K is the neighbor count (required, in [1, rows]).
	K int
	// Classes bounds the label alphabet; labels must be whole numbers
	// in [0, Classes).
	Classes int
	// Options tunes the scans.
	Options KNNOptions
}

// Fit implements Estimator.
func (e KNNClassifier) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	if err := unsharded(ds, e); err != nil {
		return nil, err
	}
	if e.K < 1 || e.K > ds.X.Rows() {
		return nil, fmt.Errorf("m3: k = %d outside [1,%d]", e.K, ds.X.Rows())
	}
	if ds.Labels == nil {
		return nil, errors.New("m3: dataset has no labels")
	}
	y, err := preprocess.IntLabels(ds.Labels, e.Classes)
	if err != nil {
		return nil, err
	}
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	return &FittedKNN{refs: ds.X, labels: y, k: e.K, opts: opts}, nil
}

// FittedKNN answers queries against the retained reference matrix. It
// has no serial form: Save returns an error, and the model is only
// valid while the reference matrix (and its engine) stay open.
type FittedKNN struct {
	refs   *Matrix
	labels []int
	k      int
	opts   KNNOptions
}

// K returns the configured neighbor count.
func (f *FittedKNN) K() int { return f.k }

// Refs returns the retained reference matrix.
func (f *FittedKNN) Refs() *Matrix { return f.refs }

// Predict classifies a single query row by majority vote (one
// reference scan); it returns NaN on shape mismatch.
func (f *FittedKNN) Predict(row []float64) float64 {
	q := mat.NewDenseFrom(append([]float64(nil), row...), 1, len(row))
	out, err := f.PredictMatrix(q)
	if err != nil {
		return math.NaN()
	}
	return out[0]
}

// PredictMatrix classifies every row of x with one blocked parallel
// scan of the reference matrix.
func (f *FittedKNN) PredictMatrix(x *Matrix) ([]float64, error) {
	if x == nil {
		return nil, errors.New("m3: nil matrix")
	}
	preds, err := knn.Classify(nil, f.refs, f.labels, x, f.k, f.opts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(preds))
	for i, c := range preds {
		out[i] = float64(c)
	}
	return out, nil
}

// Save is unsupported: the "model" is the reference data itself.
func (f *FittedKNN) Save(path string) error {
	return errors.New("m3: k-NN models have no serial form; persist the reference dataset instead")
}

// --- SGD --------------------------------------------------------------

// SGDClassifier estimates a binary classifier with (mini-batch)
// stochastic gradient descent — the online-learning path of the
// paper's §4.
type SGDClassifier struct {
	// Binarize derives 0/1 labels by comparing to Positive.
	Binarize bool
	// Positive is the label value mapped to 1 when Binarize is set.
	Positive float64
	// Options tunes the trainer.
	Options SGDOptions
}

// Fit implements Estimator.
func (e SGDClassifier) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	if ds.Shards != nil {
		return nil, errors.New("m3: SGD is a sequential single-pass trainer; its updates depend on row order across the whole dataset and cannot be sharded — train locally instead")
	}
	y := ds.Labels
	if e.Binarize {
		y = preprocess.BinaryLabels(y, e.Positive)
	}
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	m, err := sgd.Train(ctx, ds.X, y, opts)
	if err != nil {
		return nil, err
	}
	return &FittedLogistic{LogisticModel: m, workers: opts.Workers}, nil
}

// --- Naive Bayes ------------------------------------------------------

// NaiveBayes estimates a Gaussian naive Bayes classifier in a single
// blocked parallel counting scan.
type NaiveBayes struct {
	// Classes is the class count; labels must be whole numbers in
	// [0, Classes).
	Classes int
	// Options tunes the trainer.
	Options BayesOptions
}

// streamingFit reports that training is a single counting scan, so
// pipelines train naive Bayes straight off a fused view.
func (NaiveBayes) streamingFit() bool { return true }

// Fit implements Estimator.
func (e NaiveBayes) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	m, err := bayes.TrainPlane(ctx, ds.Plane(opts.Workers), e.Classes, opts)
	if err != nil {
		return nil, err
	}
	return &FittedBayes{BayesModel: m, workers: opts.Workers}, nil
}

// FittedBayes is a fitted Gaussian naive Bayes classifier.
type FittedBayes struct {
	*BayesModel
	workers int
}

// Predict returns the maximum-a-posteriori class as a float64.
func (f *FittedBayes) Predict(row []float64) float64 {
	return float64(f.BayesModel.Predict(row))
}

// PredictMatrix returns the MAP class for every row of x.
func (f *FittedBayes) PredictMatrix(x *Matrix) ([]float64, error) {
	return predictRows(x, f.workers, f.Features, f.Predict)
}

// Save persists the model via modelio.
func (f *FittedBayes) Save(path string) error {
	return modelio.SaveFile(path, f.BayesModel)
}

// --- PCA --------------------------------------------------------------

// PrincipalComponents estimates a PCA decomposition in two blocked
// parallel scans (mean + covariance).
type PrincipalComponents struct {
	// Options tunes the decomposition (Components is required).
	Options PCAOptions
}

// streamingFit reports that training is two forward scans (mean +
// covariance), so pipelines train PCA straight off a fused view.
func (PrincipalComponents) streamingFit() bool { return true }

// Fit implements Estimator; labels are ignored.
func (e PrincipalComponents) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	res, err := pca.FitPlane(ctx, ds.Plane(opts.Workers), opts)
	if err != nil {
		return nil, err
	}
	return &FittedPCA{PCAResult: res, workers: opts.Workers}, nil
}

// FittedPCA is a fitted decomposition; the embedded PCAResult exposes
// Eigenvalues, ExplainedRatio and Reconstruct. Note the dataset-level
// Transform (TransformerModel) shadows PCAResult's row-level method —
// use TransformRow, or PCAResult.Transform directly, to project a
// single row.
type FittedPCA struct {
	*PCAResult
	workers int
}

// Predict returns the projection of row onto the leading principal
// component (the scalar summary of the uniform Model interface; use
// TransformRow for all coordinates).
func (f *FittedPCA) Predict(row []float64) float64 {
	coords := make([]float64, f.Components.Rows())
	f.PCAResult.Transform(row, coords)
	return coords[0]
}

// PredictMatrix returns the leading-component coordinate per row.
func (f *FittedPCA) PredictMatrix(x *Matrix) ([]float64, error) {
	return predictRows(x, f.workers, f.Components.Cols(), f.Predict)
}

// Save persists the decomposition via modelio.
func (f *FittedPCA) Save(path string) error {
	return modelio.SaveFile(path, f.PCAResult)
}
