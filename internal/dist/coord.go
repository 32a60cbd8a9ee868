package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"m3/internal/core"
	"m3/internal/exec"
	"m3/internal/obs"
)

// Options parameterizes a Coordinator.
type Options struct {
	// DialTimeout bounds each dial attempt (default 5s).
	DialTimeout time.Duration
	// DialRetries is how many times a transient dial failure (worker
	// still binding) is retried with exponential backoff (default 5).
	DialRetries int
	// CallTimeout bounds each RPC round trip (default 2m — a round
	// includes a full shard scan).
	CallTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.DialRetries <= 0 {
		o.DialRetries = 5
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Minute
	}
	return o
}

// Stats summarizes a coordinator's wire activity (monotonic since
// Dial; snapshot before and after a fit to cost it).
type Stats struct {
	// Rounds counts broadcast rounds (one parallel op across all
	// active shards).
	Rounds int64
	// BytesSent / BytesReceived are wire totals from the
	// coordinator's side.
	BytesSent, BytesReceived int64
	// StragglerWait accumulates per-round max-minus-min worker
	// latency.
	StragglerWait time.Duration
}

// Sub returns s - earlier, for per-fit deltas.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Rounds:        s.Rounds - earlier.Rounds,
		BytesSent:     s.BytesSent - earlier.BytesSent,
		BytesReceived: s.BytesReceived - earlier.BytesReceived,
		StragglerWait: s.StragglerWait - earlier.StragglerWait,
	}
}

// workerConn is one dialed worker.
type workerConn struct {
	addr   string
	conn   net.Conn
	seq    uint64
	lo, hi int
	// mu serializes calls on the connection (the protocol is strictly
	// request/response).
	mu sync.Mutex
}

// Coordinator drives distributed fits over a set of dialed workers.
// After Open it is the plane (core.Shards) of the sharded dataset: it
// broadcasts passes and refolds their group states. It is not safe
// for concurrent fits.
type Coordinator struct {
	opts    Options
	workers []*workerConn
	// active are the workers holding shards of the open dataset, in
	// ascending shard order — the refold order.
	active []*workerConn

	// rows is the open dataset's row count, cols its current width
	// (changed by pushed stages), groupRows its merge-group height.
	rows, cols, groupRows int

	rounds, bytesSent, bytesRecv atomic.Int64
	stragglerNanos               atomic.Int64
}

// DialWorkers connects to every addr (retrying transient failures)
// and returns a coordinator over them.
func DialWorkers(ctx context.Context, addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("dist: no worker addresses")
	}
	o := opts.withDefaults()
	c := &Coordinator{opts: o}
	for _, addr := range addrs {
		conn, err := dialRetry(ctx, addr, o.DialTimeout, o.DialRetries)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.workers = append(c.workers, &workerConn{addr: addr, conn: conn})
	}
	return c, nil
}

// Close drops every worker connection, failing any call in flight.
// Workers tear down their shard state when the connection closes.
func (c *Coordinator) Close() error {
	var errs []error
	for _, w := range c.workers {
		if err := w.conn.Close(); !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Workers returns the dialed worker count.
func (c *Coordinator) Workers() int { return len(c.workers) }

// Shards returns the active shard count of the open dataset.
func (c *Coordinator) Shards() int { return len(c.active) }

// Stats returns cumulative wire statistics.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Rounds:        c.rounds.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesReceived: c.bytesRecv.Load(),
		StragglerWait: time.Duration(c.stragglerNanos.Load()),
	}
}

// call performs one serialized RPC on w. ctx cancellation pokes the
// connection deadline so a mid-round cancel unblocks promptly.
func (c *Coordinator) call(ctx context.Context, w *workerConn, op string, body []byte) (*response, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	req := request{Seq: w.seq, Op: op, Body: body}
	w.conn.SetDeadline(time.Now().Add(c.opts.CallTimeout))
	stop := context.AfterFunc(ctx, func() {
		w.conn.SetDeadline(time.Unix(1, 0))
	})
	defer stop()
	sent, err := writeFrame(w.conn, &req)
	c.bytesSent.Add(int64(sent))
	bytesSentTotal.With(op).Add(float64(sent))
	if err != nil {
		return nil, c.rpcErr(ctx, w, op, err)
	}
	var resp response
	recvd, err := readFrame(w.conn, &resp)
	c.bytesRecv.Add(int64(recvd))
	bytesRecvTotal.With(op).Add(float64(recvd))
	if err != nil {
		return nil, c.rpcErr(ctx, w, op, err)
	}
	if resp.Seq != req.Seq {
		return nil, fmt.Errorf("dist: worker %s: %s: reply %d for request %d", w.addr, op, resp.Seq, req.Seq)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("dist: worker %s: %s", w.addr, resp.Err)
	}
	return &resp, nil
}

// callWith encodes req and calls op on w.
func (c *Coordinator) callWith(ctx context.Context, w *workerConn, op string, req any) (*response, error) {
	body, err := encodeBody(req)
	if err != nil {
		return nil, err
	}
	return c.call(ctx, w, op, body)
}

// rpcErr attributes a transport failure: a canceled context wins over
// the I/O error it induced.
func (c *Coordinator) rpcErr(ctx context.Context, w *workerConn, op string, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("dist: worker %s: %s: %w", w.addr, op, err)
}

// broadcast runs op on every active worker in parallel, sending
// bodies[i] to worker i, and returns the responses in shard order —
// one bulk-synchronous round.
func (c *Coordinator) broadcast(ctx context.Context, op string, bodies [][]byte) ([]*response, error) {
	sp := obs.StartSpan("dist", "round "+op)
	defer sp.End()
	n := len(c.active)
	out := make([]*response, n)
	errs := make([]error, n)
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i, w := range c.active {
		wg.Add(1)
		go func(i int, w *workerConn) {
			defer wg.Done()
			start := time.Now()
			out[i], errs[i] = c.call(ctx, w, op, bodies[i])
			durs[i] = time.Since(start)
		}(i, w)
	}
	wg.Wait()
	c.rounds.Add(1)
	roundsTotal.With(op).Inc()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	minD, maxD := durs[0], durs[0]
	for _, d := range durs[1:] {
		minD, maxD = min(minD, d), max(maxD, d)
	}
	wait := maxD - minD
	c.stragglerNanos.Add(int64(wait))
	stragglerWaitSeconds.With(op).Add(wait.Seconds())
	sp.SetArg("workers", n).SetArg("straggler_wait", wait.String())
	return out, nil
}

// broadcastAll is broadcast with the same request for every worker.
func (c *Coordinator) broadcastAll(ctx context.Context, op string, req any) ([]*response, error) {
	body, err := encodeBody(req)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(c.active))
	for i := range bodies {
		bodies[i] = body
	}
	return c.broadcast(ctx, op, bodies)
}

// Open shards the dataset file at path across the dialed workers and
// returns it as a sharded dataset whose passes run on them: it probes
// the file's shape, plans merge-group-aligned contiguous shards, has
// each active worker open its row window, and resets their per-fit
// state. Every fit opens afresh.
func (c *Coordinator) Open(ctx context.Context, path string) (*core.Dataset, error) {
	if len(c.workers) == 0 {
		return nil, errors.New("dist: no workers")
	}
	resp, err := c.callWith(ctx, c.workers[0], "stat", &statReq{Path: path})
	if err != nil {
		return nil, err
	}
	var st statResp
	if err := decodeBody(resp.Body, &st); err != nil {
		return nil, err
	}
	shards, err := PlanShards(st.Rows, len(c.workers))
	if err != nil {
		return nil, err
	}
	c.rows, c.cols, c.groupRows = st.Rows, st.Cols, exec.GroupRows(st.Rows)
	c.active = c.workers[:len(shards)]
	bodies := make([][]byte, len(shards))
	for i, sh := range shards {
		c.active[i].lo, c.active[i].hi = sh.Lo, sh.Hi
		if bodies[i], err = encodeBody(&openReq{Path: path, Lo: sh.Lo, Hi: sh.Hi, GroupRows: c.groupRows}); err != nil {
			return nil, err
		}
	}
	if _, err := c.broadcast(ctx, "open", bodies); err != nil {
		return nil, err
	}
	if _, err := c.broadcastAll(ctx, "reset", struct{}{}); err != nil {
		return nil, err
	}
	return &core.Dataset{Path: path, Shards: c}, nil
}

// Dims implements exec.Plane.
func (c *Coordinator) Dims() (int, int) { return c.rows, c.cols }

// Reduce implements exec.Plane: one broadcast round runs the pass on
// every shard, and the shipped group states fold into a fresh zero in
// shard-then-group order — the fold a local scan performs.
func (c *Coordinator) Reduce(ctx context.Context, j exec.Job) (any, float64, error) {
	resps, err := c.broadcastAll(ctx, "reduce", &reduceReq{Pass: j.Pass()})
	if err != nil {
		return nil, 0, err
	}
	total := j.Zero()
	var stall float64
	for i, r := range resps {
		stall += r.Stall
		w := c.active[i]
		n, err := j.Refold(total, func(v any) error { return decodeBody(r.Body, v) })
		if err != nil {
			return nil, 0, fmt.Errorf("dist: worker %s: %w", w.addr, err)
		}
		if want := (w.hi - w.lo + c.groupRows - 1) / c.groupRows; n != want {
			return nil, 0, fmt.Errorf("dist: worker %s: %d merge groups, want %d", w.addr, n, want)
		}
	}
	return total, stall, nil
}

// Sample implements exec.Plane: shards are walked in order, each
// resuming the running prefix sum where the previous left off — the
// flat sequential walk's additions and comparisons, exactly.
func (c *Coordinator) Sample(ctx context.Context, key string, target float64) (int, error) {
	acc := 0.0
	for _, w := range c.active {
		resp, err := c.callWith(ctx, w, "sample", &sampleReq{Key: key, Acc: acc, Target: target})
		if err != nil {
			return 0, err
		}
		var s sampleResp
		if err := decodeBody(resp.Body, &s); err != nil {
			return 0, err
		}
		if s.Found {
			return w.lo + s.Idx, nil
		}
		acc = s.Acc
	}
	// Mass fell short of target (floating-point shortfall): the local
	// walk falls back to the last row.
	return c.rows - 1, nil
}

// Row implements exec.Plane, routing to the owning shard.
func (c *Coordinator) Row(ctx context.Context, i int, dst []float64) (float64, error) {
	for _, w := range c.active {
		if i < w.lo || i >= w.hi {
			continue
		}
		resp, err := c.callWith(ctx, w, "row", &rowReq{I: i - w.lo})
		if err != nil {
			return 0, err
		}
		var row []float64
		if err := decodeBody(resp.Body, &row); err != nil {
			return 0, err
		}
		if len(row) != len(dst) {
			return 0, fmt.Errorf("dist: worker %s: row of %d values, want %d", w.addr, len(row), len(dst))
		}
		copy(dst, row)
		return resp.Stall, nil
	}
	return 0, fmt.Errorf("dist: row %d outside every shard", i)
}

// Gather implements exec.Plane, concatenating shards in order.
func (c *Coordinator) Gather(ctx context.Context, key string) ([]int, error) {
	resps, err := c.broadcastAll(ctx, "gather", &gatherReq{Key: key})
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, c.rows)
	for i, r := range resps {
		var part []int
		if err := decodeBody(r.Body, &part); err != nil {
			return nil, err
		}
		if w := c.active[i]; len(part) != w.hi-w.lo {
			return nil, fmt.Errorf("dist: worker %s: %d values for %d rows", w.addr, len(part), w.hi-w.lo)
		}
		out = append(out, part...)
	}
	return out, nil
}

// Push implements core.Shards: every worker appends the stage to its
// fused view, so later passes scan transformed rows.
func (c *Coordinator) Push(ctx context.Context, st core.Stage) error {
	if _, err := c.broadcastAll(ctx, "stage", &stageReq{Stage: st}); err != nil {
		return err
	}
	c.cols = st.OutCols()
	return nil
}

// Materialize implements core.Shards: every worker streams its fused
// view once into engine scratch, so multi-epoch trainers re-scan a
// cache instead of re-running the stage chain.
func (c *Coordinator) Materialize(ctx context.Context) error {
	_, err := c.broadcastAll(ctx, "materialize", struct{}{})
	return err
}
