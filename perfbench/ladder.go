package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"m3"
)

const (
	// knnRefs is the reference-table size of the nn model and the
	// k-NN kernel rung; knnQueries is the rung's query batch.
	knnRefs    = 5000
	knnQueries = 32
	knnK       = 5
	ladderReps = 3
)

// sumParallel sums data on par goroutines, each streaming one
// contiguous share with four independent accumulators: the plain
// read loop every rung of the ladder is compared against.
func sumParallel(data []float64, par int) float64 {
	parts := make([]float64, par)
	var wg sync.WaitGroup
	share := (len(data) + par - 1) / par
	for p := 0; p < par; p++ {
		lo, hi := p*share, min((p+1)*share, len(data))
		wg.Add(1)
		go func(p int, xs []float64) {
			defer wg.Done()
			var a, b, c, d float64
			i := 0
			for ; i+4 <= len(xs); i += 4 {
				a += xs[i]
				b += xs[i+1]
				c += xs[i+2]
				d += xs[i+3]
			}
			for ; i < len(xs); i++ {
				a += xs[i]
			}
			parts[p] = a + b + c + d
		}(p, data[lo:hi])
	}
	wg.Wait()
	return sum(parts)
}

// dot is a single-thread dot product with four accumulators.
func dot(x, y []float64) float64 {
	var a, b, c, d float64
	for i := 0; i+4 <= len(x); i += 4 {
		a += x[i] * y[i]
		b += x[i+1] * y[i+1]
		c += x[i+2] * y[i+2]
		d += x[i+3] * y[i+3]
	}
	return a + b + c + d
}

// timed runs fn reps times under spans called name and returns the
// median duration in seconds.
func (b *bench) timed(name string, reps int, count int64, fn func() error) (float64, error) {
	var ts []float64
	for r := 0; r < reps; r++ {
		id := b.tr.begin(name, b.root)
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
		b.tr.end(id, count)
	}
	return median(ts), nil
}

// ladder measures every rung from the machine up to the kernels, each
// against the rung below, on the run's own table: mem (a heap array
// of the table's size), store (warm and cold mapped scans), exec (the
// blocked parallel scan) and the k-NN kernel.
func ladder(b *bench) error {
	id := b.tr.begin("ladder", 0)
	defer b.tr.end(id, 0)
	b.root = id
	par := runtime.NumCPU()
	bytes := tableBytes()

	heap := make([]float64, tableRows*m3.InfimnistFeatures)
	for i := range heap {
		heap[i] = float64(i & 7)
	}
	sumParallel(heap, par) // first touch, as for the mapped table below
	t, err := b.timed("mem.read", ladderReps, int64(bytes), func() error { sumParallel(heap, par); return nil })
	if err != nil {
		return err
	}
	b.layer["mem.read_gbps"] = bytes / t / 1e9
	heap = nil
	debug.FreeOSMemory()

	const dotN, dotReps = 2048, 20000
	x, y := make([]float64, dotN), make([]float64, dotN)
	for i := range x {
		x[i], y[i] = float64(i%13), float64(i%7)
	}
	sink := 0.0
	t, err = b.timed("mem.dot", ladderReps, 2*dotN*dotReps, func() error {
		for r := 0; r < dotReps; r++ {
			sink += dot(x, y)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.layer["mem.dot_gflops"] = 2 * dotN * dotReps / t / 1e9
	runtime.KeepAlive(sink)

	eng := m3.New(m3.Config{Mode: m3.MemoryMapped, TempDir: b.in.dir})
	defer eng.Close()
	var tbl *m3.Table
	t, err = b.timed("store.open", 1, 0, func() (err error) { tbl, err = eng.Open(b.in.table); return err })
	if err != nil {
		return err
	}
	b.layer["store.open_s"] = t
	data, ok := tbl.X.Contiguous()
	if !ok {
		return fmt.Errorf("mapped table is not contiguous")
	}
	sumParallel(data, par) // page the table in
	t, err = b.timed("store.scan_warm", ladderReps, int64(bytes), func() error { sumParallel(data, par); return nil })
	if err != nil {
		return err
	}
	b.layer["store.warm_gbps"] = bytes / t / 1e9
	b.setRatio("store.warm_eff", "store.warm_gbps", "mem.read_gbps")

	ev, err := newEvictor(data, b.in.table)
	if err != nil {
		return err
	}
	defer ev.close()
	var cold []float64
	for r := 0; r < 2; r++ {
		if _, err := ev.evict(); err != nil {
			return err
		}
		t, err := b.timed("store.scan_cold", 1, int64(bytes), func() error { sumParallel(data, par); return nil })
		if err != nil {
			return err
		}
		cold = append(cold, t)
	}
	b.layer["store.cold_gbps"] = bytes / median(cold) / 1e9

	v := make([]float64, tbl.X.Cols())
	out := make([]float64, tbl.X.Rows())
	for i := range v {
		v[i] = 1
	}
	t, err = b.timed("exec.scan", ladderReps, int64(bytes), func() error { tbl.X.MulVecParallel(out, v, par); return nil })
	if err != nil {
		return err
	}
	b.layer["exec.scan_gbps"] = bytes / t / 1e9
	b.setRatio("exec.scan_eff", "exec.scan_gbps", "store.warm_gbps")

	refs := tbl.X.RowWindow(0, knnRefs)
	q := m3.NewMatrix(knnQueries, tbl.X.Cols())
	for i := 0; i < knnQueries; i++ {
		copy(q.RawRow(i), tbl.X.RawRow(knnRefs+i))
	}
	flops := 3.0 * knnQueries * knnRefs * float64(tbl.X.Cols())
	t, err = b.timed("kernel.knn", ladderReps, int64(flops), func() error {
		_, err := m3.SearchNeighbors(context.Background(), refs, q, knnK, m3.KNNOptions{})
		return err
	})
	if err != nil {
		return err
	}
	b.layer["kernel.knn_gflops"] = flops / t / 1e9
	b.root = 0
	return nil
}
