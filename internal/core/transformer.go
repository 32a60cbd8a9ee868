package core

// The transformer surface: preprocessing stages behind the same
// engine-bound contract as estimators, so a scale→reduce→train
// pipeline is one Engine.Fit call and its intermediate matrices are
// materialized through the engine — heap when they fit the budget,
// temp-file mappings when they don't. Concrete transformers live in
// the public root package; core defines the contract and the shared
// blocked transform pass every stage runs on.

import (
	"context"
	"errors"
	"fmt"

	"m3/internal/exec"
	"m3/internal/mat"
)

// RowKernel is the per-worker fused transform kernel shared with the
// execution layer: it writes the transformed row into dst and returns
// the row the consumer sees (see exec.RowKernel).
type RowKernel = exec.RowKernel

// TransformerModel is a fitted preprocessing stage. Transform
// materializes a whole dataset through the owning engine (see
// TransformDataset); TransformRow maps a single feature row — the
// prediction-time path, which pipelines chain before the final
// model's Predict. Save persists the stage in the self-describing
// modelio format.
type TransformerModel interface {
	// Transform materializes the transformed dataset. The returned
	// dataset's matrix is engine-allocated scratch (mode-aware: heap
	// below the memory budget, mmap-backed above); the caller frees it
	// early with Dataset.Release, or leaves it to Engine.Close.
	Transform(ctx context.Context, ds *Dataset) (*Dataset, error)
	// TransformRow maps one feature row, returning a fresh slice whose
	// width may differ from the input (dimensionality reduction).
	TransformRow(row []float64) []float64
	// Save persists the fitted stage to path.
	Save(path string) error
}

// Transformer is an unfitted preprocessing configuration: FitTransform
// learns the stage's statistics from a dataset (one or more blocked
// scans) and returns the fitted stage. Implementations must honor ctx
// within one data block and the dataset's Workers unless their own
// options override it.
type Transformer interface {
	FitTransform(ctx context.Context, ds *Dataset) (TransformerModel, error)
}

// Stage is the operator-fusion contract: a fitted stage's per-worker
// block kernel, which scans apply between the block read and the
// consumer callback instead of materializing a transformed matrix.
// The inner ml types implement it (preprocess scalers, pca.Result).
type Stage interface {
	// InCols is the source row width the kernel consumes.
	InCols() int
	// OutCols is the transformed row width the kernel produces.
	OutCols() int
	// BlockKernel returns a fresh kernel for one scan worker. The
	// kernel writes each transformed row into dst (OutCols wide,
	// reused across calls) and must not write through src; any
	// reusable scratch belongs to the returned closure.
	BlockKernel() RowKernel
}

// BlockTransformer is a fitted transformer with a block kernel.
// Pipelines fuse every BlockTransformer stage (FusedDataset); stages
// lacking it fall back to the materializing Transform path.
type BlockTransformer interface {
	TransformerModel
	Stage
}

// Release frees the engine scratch backing a transformed dataset —
// the matrix (and its temp file, when mapped) become invalid. A no-op
// for datasets that did not come from TransformDataset. Idempotent.
func (ds *Dataset) Release() error {
	s := ds.scratch
	if s == nil {
		return nil
	}
	ds.scratch = nil
	return s.Release()
}

// TransformDataset materializes a row function applied to every row
// of ds as a new dataset, through the owning engine: the output
// matrix is Engine.AllocScratch scratch (heap below the memory
// budget, mmap-backed above — out-of-core pipelines never force an
// intermediate onto the heap), and the pass runs blocked on the
// shared execution layer with ctx cancellation at block granularity.
// newFn is called once per block to instantiate the row kernel —
// giving each a private home for reusable scratch (a centering
// buffer, say) with no cross-worker sharing; the kernel receives the
// destination row (outCols wide, reused within the block) and the
// source row, and returns the row to store (dst, or src for identity
// kernels). Each output row is written by exactly one worker, so the
// result is identical to a sequential pass. workers <= 0 inherits
// the dataset's engine setting. Labels carry through unchanged. On
// error — including cancellation — the scratch is released before
// returning, so an aborted pipeline leaves no temp file behind.
func TransformDataset(ctx context.Context, ds *Dataset, outCols, workers int, newFn func() RowKernel) (*Dataset, error) {
	if ds != nil && ds.Shards != nil {
		return nil, errors.New("core: a sharded dataset's rows stay on its workers; only block-kernel stages apply to it")
	}
	if ds == nil || ds.X == nil {
		return nil, errors.New("core: nil dataset")
	}
	if outCols < 1 {
		return nil, fmt.Errorf("core: non-positive output width %d", outCols)
	}
	// Check ctx before allocating: a pre-cancelled context must not
	// create (and then have to delete) an mmap-backed temp file.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	rows := ds.X.Rows()
	var out *ScratchMatrix
	if ds.Engine != nil {
		var err error
		if out, err = ds.Engine.AllocScratch(rows, outCols); err != nil {
			return nil, err
		}
	} else {
		// Engine-less datasets (m3.Fit on bare heap matrices)
		// materialize on the heap.
		out = &ScratchMatrix{X: mat.NewDense(rows, outCols)}
		out.X.SetWorkersHint(ds.Workers)
	}

	type blockState struct {
		buf []float64
		fn  RowKernel
	}
	_, _, err := exec.ReduceRows(ds.X.ScanCtx(ctx, workers),
		func() *blockState { return &blockState{buf: make([]float64, outCols), fn: newFn()} },
		func(st *blockState, i int, row []float64) {
			out.X.SetRow(i, st.fn(st.buf, row))
		},
		func(dst, src *blockState) {})
	if err != nil {
		return nil, errors.Join(err, out.Release())
	}
	return &Dataset{
		X:       out.X,
		Labels:  ds.Labels,
		Workers: ds.Workers,
		Mapped:  out.Mapped,
		Engine:  ds.Engine,
		scratch: out,
	}, nil
}
