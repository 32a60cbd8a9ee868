package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"m3/internal/core"
	"m3/internal/exec"
	"m3/internal/mat"
	"m3/internal/obs"
)

// WorkerConfig parameterizes a worker node.
type WorkerConfig struct {
	// Mode selects the storage backend for the shard (Auto maps when
	// the whole file outgrows the budget — exactly like a local fit).
	Mode core.Mode
	// MemoryBudget is the Auto-mode heap budget (0: engine default).
	MemoryBudget int64
	// Workers sizes the shard scans' worker pool (<= 0: NumCPU).
	// Results are bit-identical for every value.
	Workers int
}

// Worker serves shard scans for one or more coordinators. Each
// accepted connection gets its own engine and shard state, torn down
// when the connection closes, so a dropped coordinator never leaks
// mappings or scratch. A worker runs any pass type registered in its
// process (exec.RegisterPass), so it must link every trainer package
// its coordinators use; cmd/m3worker links the whole m3 package.
type Worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]*session
	draining bool
	wg       sync.WaitGroup
}

// NewWorker returns a worker with the given storage configuration.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, conns: make(map[net.Conn]*session)}
}

// Serve accepts coordinator connections on ln until Shutdown (or a
// listener error). It blocks; run it in a goroutine when embedding.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		return errors.New("dist: worker is shut down")
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			draining := w.draining
			w.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.draining {
			w.mu.Unlock()
			conn.Close()
			continue
		}
		s := &session{cfg: w.cfg}
		w.conns[conn] = s
		w.wg.Add(1)
		w.mu.Unlock()
		go func() {
			defer w.wg.Done()
			w.handleConn(conn, s)
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting, waits for in-flight requests to drain
// (bounded by ctx), then closes remaining connections. SIGTERM
// handlers call this for a clean drain.
func (w *Worker) Shutdown(ctx context.Context) error {
	w.mu.Lock()
	w.draining = true
	ln := w.ln
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		w.mu.Lock()
		//m3vet:allow maporder -- shutdown sweep; close order is irrelevant
		for c := range w.conns {
			c.Close()
		}
		w.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// handleConn serves one coordinator connection: strictly serial
// request/response, with a per-connection session torn down on exit.
// A reader goroutine stays one frame ahead (safe, the coordinator
// never pipelines) and cancels the session when the coordinator hangs
// up, so an in-flight scan stops within one block instead of running
// to the end of the shard.
func (w *Worker) handleConn(conn net.Conn, s *session) {
	defer s.close()
	ctx, cancel := context.WithCancel(context.Background())
	reqs := make(chan request)
	read := make(chan struct{})
	go func() {
		defer close(read)
		defer close(reqs)
		defer cancel() // EOF or a dropped coordinator
		for {
			var req request
			if _, err := readFrame(conn, &req); err != nil {
				return
			}
			select {
			case reqs <- req:
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() {
		// Unblock the reader (parked on the socket or on reqs) and
		// wait for it before the session is torn down.
		cancel()
		conn.Close()
		<-read
	}()
	for req := range reqs {
		workerOpsTotal.With(req.Op).Inc()
		resp := response{Seq: req.Seq}
		body, stall, err := func() (b []byte, stall float64, err error) {
			sp := obs.StartSpan("dist", "worker "+req.Op)
			defer sp.End()
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("dist: worker panic in %s: %v", req.Op, r)
				}
			}()
			return s.handle(ctx, req.Op, req.Body)
		}()
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Body, resp.Stall = body, stall
		}
		if _, err := writeFrame(conn, &resp); err != nil {
			return
		}
	}
}

// stage is a fitted stage as it arrives off the wire: the fusion
// kernel plus a self-check, run before the kernel ever sees a row.
type stage interface {
	core.Stage
	Validate() error
}

// session is the per-connection shard state.
type session struct {
	cfg WorkerConfig

	eng *core.Engine
	// base is the raw shard window; sh.X is base through the fused
	// stage chain, or the materialized cache.
	base  *mat.Dense
	sh    *exec.Shard
	chain []core.Stage
	cache *core.Dataset
}

// close releases everything the session holds.
func (s *session) close() {
	if s.eng != nil {
		s.eng.Close()
		s.eng = nil
	}
	s.base, s.sh, s.chain, s.cache = nil, nil, nil, nil
}

// reset drops the fit's stages, cache and scratch, keeping the shard.
func (s *session) reset() {
	if s.cache != nil {
		s.cache.Release()
		s.cache = nil
	}
	s.chain = nil
	s.sh.X = s.base
	s.sh.Reset()
}

// handle runs one op and returns the reply body and its stall.
func (s *session) handle(ctx context.Context, op string, body []byte) ([]byte, float64, error) {
	switch op {
	case "stat":
		var req statReq
		if err := decodeBody(body, &req); err != nil {
			return nil, 0, err
		}
		return s.stat(req)
	case "open":
		var req openReq
		if err := decodeBody(body, &req); err != nil {
			return nil, 0, err
		}
		return nil, 0, s.open(req)
	}
	if s.sh == nil {
		return nil, 0, fmt.Errorf("dist: %s before open", op)
	}
	switch op {
	case "reset":
		s.reset()
		return nil, 0, nil
	case "stage":
		var req stageReq
		if err := decodeBody(body, &req); err != nil {
			return nil, 0, err
		}
		return nil, 0, s.push(req.Stage)
	case "materialize":
		return nil, 0, s.materialize(ctx)
	case "reduce":
		var req reduceReq
		if err := decodeBody(body, &req); err != nil {
			return nil, 0, err
		}
		j, err := exec.JobOf(req.Pass)
		if err != nil {
			return nil, 0, err
		}
		groups, stall, err := j.Scan(ctx, s.sh, true)
		if err != nil {
			return nil, stall, err
		}
		out, err := encodeBody(groups)
		return out, stall, err
	case "sample":
		var req sampleReq
		if err := decodeBody(body, &req); err != nil {
			return nil, 0, err
		}
		idx, acc, found, err := s.sh.SamplePrefix(req.Key, req.Acc, req.Target)
		if err != nil {
			return nil, 0, err
		}
		out, err := encodeBody(&sampleResp{Found: found, Idx: idx, Acc: acc})
		return out, 0, err
	case "row":
		var req rowReq
		if err := decodeBody(body, &req); err != nil {
			return nil, 0, err
		}
		if n, _ := s.sh.X.Dims(); req.I < 0 || req.I >= n {
			return nil, 0, fmt.Errorf("dist: row %d out of shard [0, %d)", req.I, n)
		}
		row, stall := s.sh.X.Row(req.I)
		out, err := encodeBody(row)
		return out, stall, err
	case "gather":
		var req gatherReq
		if err := decodeBody(body, &req); err != nil {
			return nil, 0, err
		}
		v, err := s.sh.Ints(req.Key)
		if err != nil {
			return nil, 0, err
		}
		out, err := encodeBody(v)
		return out, 0, err
	}
	return nil, 0, fmt.Errorf("dist: unknown op %q", op)
}

// stat opens path just long enough to report its shape.
func (s *session) stat(req statReq) ([]byte, float64, error) {
	eng := core.New(core.Config{Mode: core.MemoryMapped, Workers: 1})
	defer eng.Close()
	t, err := eng.Open(req.Path)
	if err != nil {
		return nil, 0, err
	}
	rows, cols := t.X.Dims()
	out, err := encodeBody(&statResp{Rows: rows, Cols: cols})
	return out, 0, err
}

// open claims the shard: the engine opens the whole file (mapped
// files share pages between shards on one host; heap mode loads once
// per worker) and the session scans only its row window.
func (s *session) open(req openReq) error {
	if req.Lo < 0 || req.Hi <= req.Lo {
		return fmt.Errorf("dist: bad shard [%d, %d)", req.Lo, req.Hi)
	}
	if req.GroupRows < 1 {
		return fmt.Errorf("dist: bad group height %d", req.GroupRows)
	}
	if req.Lo%req.GroupRows != 0 {
		return fmt.Errorf("dist: shard start %d is not a multiple of the group height %d", req.Lo, req.GroupRows)
	}
	s.close() // tear down any previous shard first
	s.eng = core.New(core.Config{Mode: s.cfg.Mode, MemoryBudget: s.cfg.MemoryBudget, Workers: s.cfg.Workers})
	t, err := s.eng.Open(req.Path)
	if err != nil {
		return err
	}
	if rows := t.X.Rows(); req.Hi > rows {
		return fmt.Errorf("dist: shard [%d, %d) exceeds %d rows", req.Lo, req.Hi, rows)
	}
	s.base = t.X.RowWindow(req.Lo, req.Hi)
	s.sh = &exec.Shard{X: s.base, Lo: req.Lo, Workers: s.cfg.Workers, GroupRows: req.GroupRows}
	if t.Labels != nil {
		s.sh.Labels = t.Labels[req.Lo:req.Hi]
	}
	return nil
}

// push appends one fitted stage to the fused chain and rebuilds the
// view: the same kernels a local pipeline fuses, so the transformed
// rows are bit-identical.
func (s *session) push(st core.Stage) error {
	if s.cache != nil {
		return errors.New("dist: stage after materialize")
	}
	checked, ok := st.(stage)
	if !ok {
		return fmt.Errorf("dist: %T cannot be checked as a shipped stage", st)
	}
	if err := checked.Validate(); err != nil {
		return err
	}
	if _, cols := s.sh.X.Dims(); st.InCols() != cols {
		return fmt.Errorf("dist: stage expects %d columns, view has %d", st.InCols(), cols)
	}
	s.chain = append(s.chain, st)
	s.sh.X = mat.NewFused(s.base, st.OutCols(), core.FuseKernels(s.chain))
	return nil
}

// materialize streams the fused view once into engine scratch and
// re-points the view at the cache — the worker half of the pipeline's
// single materialization before a multi-epoch final fit.
func (s *session) materialize(ctx context.Context) error {
	x := s.sh.X.(*mat.Dense)
	if !x.IsFused() {
		return nil
	}
	cache, err := core.Materialize(ctx, &core.Dataset{X: x, Workers: s.cfg.Workers, Engine: s.eng}, s.cfg.Workers)
	if err != nil {
		return err
	}
	s.cache = cache
	s.sh.X = cache.X
	return nil
}
