package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"m3"
	"m3/internal/dist"
	"m3/internal/obs"
)

// minRounds is the fewest measured rounds per phase.
const minRounds = 3

// iterRec is one optimizer iteration (or Lloyd pass), callback to
// callback, with the data passes it made.
type iterRec struct {
	dur    float64
	passes int
}

// fitRec is one timed fit.
type fitRec struct {
	wall, prefit, postfit float64
	iters                 []iterRec
	evals, nIters         int
	io                    obs.ProcSnapshot // storage counters over the fit
}

// trainStats collects one measurement phase of a training workload.
type trainStats struct {
	ttm, gbps, op []float64 // per round
	lr, km        []fitRec
	dist          []distRec
	memPeak       []float64 // per round, bytes
	pageinMB      []float64 // per round: disk reads, which a resident table never needs
}

// startRound returns the round's end hook: every round starts from a
// collected heap, and its peak anonymous memory and disk reads are
// one sample each.
func (st *trainStats) startRound() func() {
	runtime.GC()
	debug.FreeOSMemory()
	m := startMemSampler(5 * time.Millisecond)
	io0, _ := obs.ReadProc()
	return func() {
		st.memPeak = append(st.memPeak, float64(m.finish()))
		io1, _ := obs.ReadProc()
		st.pageinMB = append(st.pageinMB, float64(io1.Sub(io0).ReadBytes)/1e6)
	}
}

// fitLocal runs one Engine.Fit under a span called name, recording
// iteration boundaries from the fit's Callback. hook, when set, runs
// inside every callback (and before the fit) under its own span and
// outside the iteration spans.
func (b *bench) fitLocal(eng *m3.Engine, tbl *m3.Table, name string,
	mk func(cb func(m3.IterInfo) bool) m3.Estimator, hook func(parent int) error) (m3.Model, fitRec, error) {
	var rec fitRec
	span := b.tr.begin(name, b.root)
	if hook != nil {
		if err := hook(span); err != nil {
			return nil, rec, err
		}
	}
	var hookErr error
	lastEvals, first := 0, true
	io0, _ := obs.ReadProc()
	start := time.Now()
	last := start
	cb := func(info m3.IterInfo) bool {
		now := time.Now()
		passes := info.Evaluations - lastEvals
		if info.Evaluations == 0 { // Lloyd iterations scan once each
			passes = 1
		}
		lastEvals = info.Evaluations
		if first {
			// The first iteration shares its interval with the fit's
			// preparation (label prep, k-means++ seeding).
			rec.prefit, first = now.Sub(start).Seconds(), false
		} else {
			rec.iters = append(rec.iters, iterRec{now.Sub(last).Seconds(), passes})
			b.tr.add("optimize.iter", span, last, now, int64(passes))
		}
		if hook != nil {
			if hookErr = hook(span); hookErr != nil {
				return false
			}
		}
		last = time.Now()
		return true
	}
	model, err := eng.Fit(context.Background(), mk(cb), tbl)
	end := time.Now()
	b.tr.end(span, int64(lastEvals))
	if err == nil {
		err = hookErr
	}
	if err != nil {
		return nil, rec, err
	}
	rec.wall = end.Sub(start).Seconds()
	rec.postfit = end.Sub(last).Seconds()
	io1, _ := obs.ReadProc()
	rec.io = io1.Sub(io0)
	switch m := model.(type) {
	case *m3.FittedLogistic:
		rec.evals, rec.nIters = m.Result.Evaluations, m.Result.Iterations
	case *m3.FittedKMeans:
		rec.evals, rec.nIters = m.Scans, m.Iterations
	}
	return model, rec, nil
}

// checkLogreg compares a fitted logreg's saved bytes with the
// reference fit's.
func (b *bench) checkLogreg(model m3.Model, ref []byte, what string) error {
	got, err := savedBytes(model, b.in.dir)
	if err != nil {
		return err
	}
	msg := ""
	if !bytes.Equal(got, ref) {
		msg = fmt.Sprintf("%s: saved logreg model differs from the reference fit", what)
	}
	b.op(msg)
	return nil
}

// trainEnv is a set-up engine with its mapped, resident table and a
// coordinator dialed to in-process workers over loopback.
type trainEnv struct {
	eng *m3.Engine
	tbl *m3.Table
	c   *cluster
}

func (e *trainEnv) close() {
	if e.c != nil {
		e.c.close()
	}
	e.eng.Close()
}

// setupTrain sets up once: Engine.Open, a warm-up pass over the
// mapped table, worker start and dial. It returns the set-up and its
// wall time.
func (b *bench) setupTrain() (*trainEnv, float64, error) {
	id := b.tr.begin("setup", b.root)
	defer b.tr.end(id, 0)
	t := time.Now()
	eng := m3.New(m3.Config{Mode: m3.MemoryMapped, TempDir: b.in.dir})
	sp := b.tr.begin("store.open", id)
	tbl, err := eng.Open(b.in.table)
	b.tr.end(sp, 0)
	if err != nil {
		eng.Close()
		return nil, 0, err
	}
	data, ok := tbl.X.Contiguous()
	if !ok {
		eng.Close()
		return nil, 0, fmt.Errorf("mapped table is not contiguous")
	}
	sp = b.tr.begin("store.warm", id)
	sumParallel(data, runtime.NumCPU())
	b.tr.end(sp, int64(len(data)*8))
	sp = b.tr.begin("dist.start", id)
	c, err := startCluster()
	b.tr.end(sp, distWorkers)
	if err != nil {
		eng.Close()
		return nil, 0, err
	}
	return &trainEnv{eng, tbl, c}, time.Since(t).Seconds(), nil
}

// phases measures round back to back, at least minRounds times and
// until the run's time is up: once in an untraced run; in a traced
// run twice, untraced then traced, half the run each, recording the
// tracing overhead on the local fits, which carry the spans. It
// reports the (last) phase's metrics.
func (b *bench) phases(round func(*trainStats) error) error {
	measure := func(d time.Duration) (*trainStats, error) {
		st := &trainStats{}
		for deadline := time.Now().Add(d); len(st.ttm) < minRounds || time.Now().Before(deadline); {
			mem := st.startRound()
			err := round(st)
			mem()
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	if !b.traced {
		st, err := measure(b.seconds)
		if err == nil {
			b.reportTrain(st)
		}
		return err
	}
	b.tr.on.Store(false)
	base, err := measure(b.seconds / 2)
	if err != nil {
		return err
	}
	b.tr.on.Store(true)
	b.root = b.tr.begin("measure", 0)
	st, err := measure(b.seconds / 2)
	b.tr.end(b.root, 0)
	b.tr.on.Store(false)
	if err != nil {
		return err
	}
	b.layer["obs.trace_overhead_frac"] = median(st.ttm)/median(base.ttm) - 1
	b.reportTrain(st)
	return nil
}

// add records one round: its local time to model, the data passes it
// made and its sharded fit's latency.
func (st *trainStats) add(wall float64, passes int, op float64) {
	st.ttm = append(st.ttm, wall)
	st.gbps = append(st.gbps, tableBytes()*float64(passes)/wall/1e9)
	st.op = append(st.op, op)
}

// reportTrain turns a phase into the end-to-end or per-layer metrics.
func (b *bench) reportTrain(st *trainStats) {
	b.e2e["time_to_model_s"] = median(st.ttm)
	b.e2e["train_gbps"] = median(st.gbps)
	b.e2e["op_p50_ms"] = median(st.op) * 1000
	b.e2e["mem_peak_mb"] = median(st.memPeak) / 1e6
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, time_to_model_s %.3f, dist_fit_s %.3f, pagein_mb %.0f\n", len(st.ttm), st.ttm, st.op, st.pageinMB)
	if !b.traced {
		return
	}
	f := st.lr[0]
	b.layer["optimize.iters"] = float64(f.nIters)
	b.layer["optimize.evals"] = float64(f.evals)
	b.layer["optimize.evals_per_iter"] = float64(f.evals) / float64(f.nIters)
	var pass, wall, pre, post []float64
	for _, f := range st.lr {
		for _, it := range f.iters {
			pass = append(pass, it.dur/float64(it.passes))
		}
		wall = append(wall, f.wall)
		pre = append(pre, f.prefit)
		post = append(post, f.postfit)
	}
	b.layer["kernel.grad_gbps"] = tableBytes() / median(pass) / 1e9
	b.setRatio("kernel.grad_eff", "kernel.grad_gbps", "exec.scan_gbps")
	b.layer["core.logreg_fit_s"] = median(wall)
	b.layer["core.prefit_s"] = median(pre)
	b.layer["core.postfit_s"] = median(post)

	pass, wall, pre = nil, nil, nil
	for _, f := range st.km {
		for _, it := range f.iters {
			pass = append(pass, it.dur)
		}
		wall = append(wall, f.wall)
		pre = append(pre, f.prefit)
	}
	k := float64(kmeansEstimator(0, nil).Options.K)
	b.layer["kernel.assign_gflops"] = 3 * k * tableRows * m3.InfimnistFeatures / median(pass) / 1e9
	b.layer["core.kmeans_fit_s"] = median(wall)
	b.layer["core.kmeans_prefit_s"] = median(pre)

	var roundMs, strag []float64
	for _, r := range st.dist {
		roundMs = append(roundMs, r.wall/float64(r.stats.Rounds)*1000)
		strag = append(strag, r.stats.StragglerWait.Seconds())
	}
	d := st.dist[0].stats
	b.layer["dist.rounds"] = float64(d.Rounds)
	b.layer["dist.bytes_per_round"] = float64(d.BytesSent+d.BytesReceived) / float64(d.Rounds)
	b.layer["dist.round_ms"] = median(roundMs)
	b.layer["dist.straggler_s"] = median(strag)
	b.layer["dist.overhead_frac"] = median(st.op)/b.layer["core.logreg_fit_s"] - 1
}

// trainWorkload: per round, a logreg fit then a k-means fit on the
// resident mapped table, then the same logreg through Cluster.Fit on
// distWorkers in-process workers, the only place where encode, wire,
// straggler wait and refold run.
func trainWorkload(b *bench) error {
	lrRef, kmRef, err := b.in.references()
	if err != nil {
		return err
	}
	env, setup, err := b.setupTrain()
	if err != nil {
		return err
	}
	defer env.close()
	setups := []float64{setup}
	err = b.phases(func(st *trainStats) error {
		lm, lr, err := b.fitLocal(env.eng, env.tbl, "core.logreg_fit", logregFit, nil)
		if err != nil {
			return err
		}
		if err := b.checkLogreg(lm, lrRef, "local"); err != nil {
			return err
		}
		km, kr, err := b.fitLocal(env.eng, env.tbl, "core.kmeans_fit", kmeansFit, nil)
		if err != nil {
			return err
		}
		msg := ""
		if got := math.Float64bits(km.(*m3.FittedKMeans).Inertia); got != kmRef {
			msg = fmt.Sprintf("k-means inertia %x, reference %x", got, kmRef)
		}
		b.op(msg)
		s0 := env.c.cl.Stats()
		sp := b.tr.begin("dist.fit", b.root)
		t := time.Now()
		dm, err := env.c.cl.Fit(context.Background(), logregEstimator(0, nil), b.in.table)
		dist := distRec{time.Since(t).Seconds(), env.c.cl.Stats().Sub(s0)}
		b.tr.end(sp, dist.stats.Rounds)
		if err != nil {
			return err
		}
		b.attempted += dist.stats.Rounds // each round is an operation; the check is one more
		if err := b.checkLogreg(dm, lrRef, "dist"); err != nil {
			return err
		}
		st.lr, st.km, st.dist = append(st.lr, lr), append(st.km, kr), append(st.dist, dist)
		st.add(lr.wall+kr.wall, lr.evals+kr.evals, dist.wall)
		// One more set-up, torn down at once: spread over the run like
		// the fits, the set-up samples see the same host, where nine
		// back to back within half a second moved together.
		e, setup, err := b.setupTrain()
		if err != nil {
			return err
		}
		e.close()
		setups = append(setups, setup)
		return nil
	})
	if err != nil {
		return err
	}
	b.e2e["setup_s"] = median(setups)
	if !b.traced {
		return nil
	}
	// The workers keep their shards mapped, which pins the table in
	// the page cache; the out-of-core rung must be able to evict it.
	env.c.close()
	env.c = nil
	return b.outOfCoreRung(env, lrRef)
}

// outOfCoreRung runs the logreg fit minRounds times with the table
// evicted from RAM before the fit and after every iteration, so most
// passes page in from disk, checking every model, and records the
// page-in counts. It is part of traced train runs: as a workload
// its fit time followed the shared disk, with a quartile spread of
// 0.47 over ten seeds in one set against 0.10 in the set before.
func (b *bench) outOfCoreRung(env *trainEnv, lrRef []byte) error {
	b.tr.on.Store(true)
	defer b.tr.on.Store(false)
	b.root = b.tr.begin("outofcore", 0)
	defer func() { b.tr.end(b.root, 0); b.root = 0 }()
	data, _ := env.tbl.X.Contiguous()
	ev, err := newEvictor(data, b.in.table)
	if err != nil {
		return err
	}
	defer ev.close()
	evict := func(parent int) error {
		sp := b.tr.begin("store.evict", parent)
		res, err := ev.evict()
		b.tr.end(sp, int64(res))
		return err
	}
	var wall, pagein, faults []float64
	for r := 0; r < minRounds; r++ {
		lm, f, err := b.fitLocal(env.eng, env.tbl, "core.logreg_fit", logregFit, evict)
		if err != nil {
			return err
		}
		if err := b.checkLogreg(lm, lrRef, "out-of-core"); err != nil {
			return err
		}
		wall = append(wall, f.wall)
		pagein = append(pagein, float64(f.io.ReadBytes)/1e6)
		faults = append(faults, float64(f.io.MajorFaults))
	}
	b.layer["core.outofcore_fit_s"] = median(wall)
	b.layer["store.pagein_mb"] = median(pagein)
	b.layer["store.major_faults"] = median(faults)
	return nil
}

// distWorkers is the in-process cluster size; each worker scans with
// one exec worker, so the cluster uses as many threads as the local
// fits on a 2-vCPU box.
const distWorkers = 2

// cluster is a set of in-process workers on loopback and the
// coordinator dialed to them.
type cluster struct {
	workers []*dist.Worker
	served  []chan error
	cl      *m3.Cluster
}

func startCluster() (*cluster, error) {
	c := &cluster{}
	var addrs []string
	for i := 0; i < distWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		w := dist.NewWorker(dist.WorkerConfig{Mode: m3.MemoryMapped, Workers: 1})
		done := make(chan error, 1)
		go func() { done <- w.Serve(ln) }()
		c.workers, c.served = append(c.workers, w), append(c.served, done)
		addrs = append(addrs, ln.Addr().String())
	}
	cl, err := m3.DialCluster(context.Background(), addrs, m3.ClusterOptions{})
	if err != nil {
		c.close()
		return nil, err
	}
	c.cl = cl
	return c, nil
}

// close hangs up, shuts every worker down and waits for their serve
// loops to return.
func (c *cluster) close() {
	if c.cl != nil {
		c.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, w := range c.workers {
		w.Shutdown(ctx)
		<-c.served[i]
	}
}

// distRec is one Cluster.Fit: its wall time and Cluster.Stats delta.
type distRec struct {
	wall  float64
	stats m3.ClusterStats
}

// warmPageCache reads the table file once so a workload that does not
// own the mapping still starts from a resident table.
func warmPageCache(path string) error {
	data, closeFn, err := m3.MapFloat64(path)
	if err != nil {
		return err
	}
	sumParallel(data, runtime.NumCPU())
	return closeFn()
}
