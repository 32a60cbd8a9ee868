package core

// Operator fusion for transformer chains: instead of materializing a
// full intermediate matrix per pipeline stage, a fused dataset is a
// virtual view whose scans run each stage's per-worker block kernel
// between the block read and the consumer callback. A K-stage
// pipeline's fitting passes then touch only the source data — the
// paper's streaming thesis applied to preprocessing: intermediates
// exist one row at a time in per-worker buffers, never in memory or
// on disk as whole matrices.

import (
	"context"
	"errors"
	"fmt"

	"m3/internal/mat"
)

// FuseKernels composes a stage chain into a single per-worker kernel
// factory: each returned kernel threads a row through every stage,
// staging intermediates in private buffers so one kernel call
// performs the whole chain with zero allocation. The chain must be
// non-empty and width-compatible (validated by FusedDataset).
func FuseKernels(chain []Stage) func() RowKernel {
	if len(chain) == 1 {
		return chain[0].BlockKernel
	}
	stages := append([]Stage(nil), chain...)
	return func() RowKernel {
		kerns := make([]RowKernel, len(stages))
		bufs := make([][]float64, len(stages)-1)
		for i, st := range stages {
			kerns[i] = st.BlockKernel()
			if i < len(bufs) {
				bufs[i] = make([]float64, st.OutCols())
			}
		}
		return func(dst, src []float64) []float64 {
			cur := src
			for i, k := range kerns[:len(kerns)-1] {
				cur = k(bufs[i], cur)
			}
			return kerns[len(kerns)-1](dst, cur)
		}
	}
}

// FusedDataset returns a virtual dataset that applies chain on the
// fly: its matrix is a fused view (mat.NewFused) whose scans deliver
// transformed rows straight from the source blocks, so fitting the
// next stage's statistics — or a single-pass trainer — costs no
// intermediate materialization. Fusing an already-fused dataset
// composes the chains (the source store is still read exactly once
// per row). The view shares the source backing: it stays valid
// exactly as long as ds does, and Release on it is a no-op. On a
// sharded dataset the stages are pushed to the workers, which fuse
// them into their shard views.
func FusedDataset(ctx context.Context, ds *Dataset, chain []Stage) (*Dataset, error) {
	if ds == nil || (ds.X == nil && ds.Shards == nil) {
		return nil, errors.New("core: nil dataset")
	}
	if len(chain) == 0 {
		return nil, errors.New("core: empty transformer chain")
	}
	_, in := ds.dims()
	for i, st := range chain {
		if st == nil {
			return nil, fmt.Errorf("core: nil transformer at chain position %d", i)
		}
		if got := st.InCols(); got != in {
			return nil, fmt.Errorf("core: chain stage %d expects %d columns, previous stage yields %d", i, got, in)
		}
		in = st.OutCols()
		if in < 1 {
			return nil, fmt.Errorf("core: chain stage %d yields non-positive width %d", i, in)
		}
	}
	out := *ds
	out.scratch = nil
	if ds.Shards != nil {
		for _, st := range chain {
			if err := ds.Shards.Push(ctx, st); err != nil {
				return nil, err
			}
		}
		out.fused = true
		return &out, nil
	}
	out.X = mat.NewFused(ds.X, in, FuseKernels(chain))
	return &out, nil
}

// dims returns the dataset's row count and current width.
func (ds *Dataset) dims() (int, int) {
	if ds.Shards != nil {
		return ds.Shards.Dims()
	}
	return ds.X.Dims()
}

// Materialize runs one fused pass that writes ds's rows — transformed
// rows, when ds is a fused view — into engine scratch, returning a
// concrete dataset. This is the single materialization a pipeline
// performs for multi-epoch trainers: the cache is built by streaming
// the source through the whole fused chain once. For an already
// concrete dataset it is a plain copy. workers <= 0 inherits the
// dataset's engine setting. On a sharded dataset every worker caches
// its own shard.
func Materialize(ctx context.Context, ds *Dataset, workers int) (*Dataset, error) {
	if ds != nil && ds.Shards != nil {
		if err := ds.Shards.Materialize(ctx); err != nil {
			return nil, err
		}
		out := *ds
		out.fused = false
		return &out, nil
	}
	if ds == nil || ds.X == nil {
		return nil, errors.New("core: nil dataset")
	}
	return TransformDataset(ctx, ds, ds.X.Cols(), workers, func() RowKernel {
		// Identity: the scan already applied any fused chain, so the
		// delivered row is the transformed row; SetRow copies it.
		return func(dst, src []float64) []float64 { return src }
	})
}
