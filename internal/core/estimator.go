package core

// The estimator surface: a Spark-MLlib-shaped interface pair that
// makes every M3 algorithm interchangeable behind Engine.Fit. The
// concrete estimators live in the public root package (they wrap the
// internal/ml trainers); core only defines the contract and the
// Dataset value that carries a table into training together with the
// engine's execution settings.

import (
	"context"
	"errors"
	"fmt"

	"m3/internal/exec"
	"m3/internal/mat"
	"m3/internal/obs"
)

// Dataset is what an Estimator trains on: a feature matrix, its
// labels, and the execution context the owning engine established
// (worker pool, storage backend). Engine.Fit builds one from a Table;
// engine-less callers (plain heap matrices) can construct it directly
// or through the root package's Fit helper.
//
// A sharded dataset (Shards non-nil) keeps its rows on a cluster's
// workers: X and Labels are nil, every data pass runs there (Plane),
// FusedDataset pushes stages to the workers and Materialize caches
// their fused views. Those two change what every later pass over the
// cluster sees, so a sharded dataset serves one fit.
type Dataset struct {
	// X is the feature matrix (heap- or mmap-backed; estimators
	// cannot tell the difference). Nil for sharded datasets.
	X *mat.Dense
	// Labels is the raw label vector from the dataset file (nil when
	// the data is unlabelled, and for sharded datasets). Passes derive
	// typed targets from it per shard.
	Labels []float64
	// Workers is the engine-resolved worker-pool size estimators
	// inherit unless their FitOptions override it. 0 lets the
	// execution layer pick runtime.NumCPU().
	Workers int
	// Mapped reports whether X is backed by a memory mapping.
	Mapped bool
	// Path is the source file, when the dataset came from one.
	Path string
	// Engine is the owning engine (nil for engine-less datasets).
	Engine *Engine
	// Shards holds a sharded dataset's rows (see internal/dist).
	Shards Shards

	// scratch is the engine allocation backing a transformed dataset
	// (nil for opened tables and caller-built datasets); Release frees
	// it early.
	scratch *ScratchMatrix
	// fused marks a sharded dataset whose workers scan through pushed
	// stages not yet materialized.
	fused bool
}

// Shards is where a sharded dataset's rows live: a plane over the
// workers' shards, plus the two operations that change what they
// scan.
type Shards interface {
	exec.Plane
	// Push appends a fitted stage to every shard's fused view.
	Push(ctx context.Context, st Stage) error
	// Materialize caches every shard's current view.
	Materialize(ctx context.Context) error
}

// Plane returns where the dataset's passes run: the cluster for a
// sharded dataset, otherwise one in-process shard over X scanned by
// up to workers goroutines.
func (ds *Dataset) Plane(workers int) exec.Plane {
	if ds.Shards != nil {
		return ds.Shards
	}
	return exec.Local(ds.X, ds.Labels, workers)
}

// Fused reports whether the dataset's rows are a virtual transformed
// view — a fused matrix, or shards scanning through pushed stages.
func (ds *Dataset) Fused() bool {
	if ds.Shards != nil {
		return ds.fused
	}
	return ds.X.IsFused()
}

// Model is a fitted model: single-row and batch prediction plus
// persistence. Prediction returns a float64 whatever the task —
// classifiers return the class index, regressors the value, clusterers
// the cluster, transformers the leading coordinate — so models stay
// interchangeable behind the interface; richer accessors live on the
// concrete fitted types.
//
// Concurrency contract: once fitted, a Model's state is read-only,
// and Predict and PredictMatrix must be safe for concurrent use from
// many goroutines on the one model value — each call works on
// caller-provided input and per-call outputs/scratch (per-worker
// kernels for fused pipelines, per-scan search state for k-NN, atomic
// store Touch counters underneath). The serving layer relies on this:
// it issues overlapping PredictMatrix batches against a single model
// snapshot without locking.
type Model interface {
	// Predict scores a single feature row.
	Predict(row []float64) float64
	// PredictMatrix scores every row of x in one blocked parallel
	// scan, returning one value per row.
	PredictMatrix(x *mat.Dense) ([]float64, error)
	// Save persists the model to path in the self-describing modelio
	// format. Models without a serial form (k-NN) return an error.
	Save(path string) error
}

// Estimator is an unfitted algorithm configuration: Fit trains it on a
// dataset and returns the fitted model. Implementations must honor
// ctx (cancellation takes effect within one data block or iteration)
// and the dataset's Workers unless their own options override it.
type Estimator interface {
	Fit(ctx context.Context, ds *Dataset) (Model, error)
}

// Dataset builds the training view of an opened table, carrying the
// engine's worker configuration so estimators inherit it.
func (e *Engine) Dataset(t *Table) *Dataset {
	return &Dataset{
		X:       t.X,
		Labels:  t.Labels,
		Workers: e.Workers(),
		Mapped:  t.Mapped,
		Path:    t.Path,
		Engine:  e,
	}
}

// Fit trains an estimator on an opened table — the algorithm-agnostic
// entry point of the M3 API: the same call fits logistic regression,
// k-means or PCA, in-memory or out-of-core, and the engine's worker
// pool, store accounting and prefetch settings reach the trainer
// automatically. ctx cancels the fit within one data block or
// iteration, returning ctx.Err().
func (e *Engine) Fit(ctx context.Context, est Estimator, t *Table) (Model, error) {
	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	if est == nil {
		return nil, errors.New("core: nil estimator")
	}
	if t == nil || t.X == nil {
		return nil, errors.New("core: nil table")
	}
	if obs.Enabled() {
		sp := obs.StartSpan("fit", fmt.Sprintf("fit %T", est)).
			SetArg("rows", t.X.Rows()).SetArg("cols", t.X.Cols()).
			SetArg("mapped", t.Mapped)
		defer sp.End()
	}
	return est.Fit(ctx, e.Dataset(t))
}
