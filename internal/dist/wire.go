// Package dist implements M3's row-sharded training cluster: K
// workers each own one contiguous, merge-group-aligned row range of a
// dataset file and an engine to scan it; a coordinator opens the file
// as a sharded core.Dataset whose plane runs every trainer's
// shardable passes (exec.Pass) on the workers.
//
// A pass is a gob-registered value holding a trainer's broadcast state
// (parameters, centroids, class count, label rule). The coordinator
// broadcasts it; each worker binds it to its shard, scans the shard
// with exec.ReduceRowGroups and ships the merge-group states; the
// coordinator folds them with the pass's own Merge in worker-then-group
// order. Because shard boundaries sit on the canonical merge-group
// grid (exec.GroupRows of the global row count) and every worker scan
// uses that global group height, this refold performs exactly the
// floating-point operations a local fit performs, in the same order:
// a K-shard fit is bit-identical to a local one — same predictions,
// same saved model bytes — for every shardable estimator. Nothing here
// names an algorithm; the worker serves only transport ops (stat,
// open, reset, stage, materialize, reduce, sample, row, gather).
//
// The transport is deliberately small: length-prefixed gob frames
// over TCP, one connection per worker, strictly serial
// request/response per connection, per-call deadlines, and
// retry-with-backoff on transient dial errors. No third-party
// dependencies.
package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"syscall"
	"time"

	"m3/internal/core"
)

// maxFrameBytes bounds a single wire frame; anything larger is a
// protocol error, not a legitimate payload.
const maxFrameBytes = 1 << 30

// request is the coordinator→worker envelope. Body is the
// gob-encoded op payload, nested so the frame layer never needs to
// know the payload's Go type and byte accounting is exact.
type request struct {
	Seq  uint64
	Op   string
	Body []byte
}

// response is the worker→coordinator envelope. A non-empty Err
// carries the worker-side error; Body is then empty. Stall is the
// simulated paging stall the op spent.
type response struct {
	Seq   uint64
	Err   string
	Body  []byte
	Stall float64
}

// encodeBody gobs an op payload into envelope bytes.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("dist: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decodeBody ungobs envelope bytes into an op payload.
func decodeBody(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("dist: decode %T: %w", v, err)
	}
	return nil
}

// writeFrame writes one length-prefixed gob frame.
func writeFrame(w io.Writer, v any) (int, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, fmt.Errorf("dist: encode frame: %w", err)
	}
	if buf.Len() > maxFrameBytes {
		return 0, fmt.Errorf("dist: frame of %d bytes exceeds limit", buf.Len())
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := w.Write(buf.Bytes())
	return 4 + n, err
}

// frameChunk bounds how far readFrame allocates ahead of the bytes
// that have arrived: a header promising a huge frame costs nothing
// until the frame does, while the usual frames (model state, group
// partials) still land in one exact buffer.
const frameChunk = 256 << 10

// readFrame reads one length-prefixed gob frame into v, returning the
// bytes consumed.
func readFrame(r io.Reader, v any) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrameBytes {
		return 4, fmt.Errorf("dist: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, 0, min(n, frameChunk))
	for len(payload) < n {
		k := min(n-len(payload), frameChunk)
		payload = slices.Grow(payload, k)
		got, err := io.ReadFull(r, payload[len(payload):len(payload)+k])
		payload = payload[:len(payload)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 4 + len(payload), err
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return 4 + n, fmt.Errorf("dist: decode frame: %w", err)
	}
	return 4 + n, nil
}

// dialRetry dials addr, retrying transient failures (refused
// connections, timeouts — a worker still binding its listener) with
// exponential backoff.
func dialRetry(ctx context.Context, addr string, timeout time.Duration, retries int) (net.Conn, error) {
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, errors.Join(ctx.Err(), lastErr)
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		d := net.Dialer{Timeout: timeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if !transientDialError(err) {
			break
		}
	}
	return nil, fmt.Errorf("dist: dial %s: %w", addr, lastErr)
}

// transientDialError reports whether a dial failure is worth
// retrying: the worker may simply not be listening yet.
func transientDialError(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// --- Op payloads ------------------------------------------------------
//
// Every type below crosses the wire via gob. Passes and stages travel
// as interface values, so their concrete types must be gob-registered
// (exec.RegisterPass; the root package registers its fitted stages).

// statReq asks a worker for a dataset file's shape.
type statReq struct{ Path string }

type statResp struct{ Rows, Cols int }

// openReq assigns the worker its shard: rows [Lo, Hi) of Path, with
// every scan folding at the coordinator's global group height.
type openReq struct {
	Path      string
	Lo, Hi    int
	GroupRows int
}

// stageReq appends one fitted stage to the worker's fused view.
type stageReq struct{ Stage core.Stage }

// reduceReq runs one pass over the shard; the reply body is the
// pass's merge-group states ([]S) in row order.
type reduceReq struct{ Pass any }

// sampleReq resumes the prefix walk over the shard's scratch Key with
// the running sum Acc carried from the shards before it.
type sampleReq struct {
	Key         string
	Acc, Target float64
}

type sampleResp struct {
	Found bool
	// Idx is shard-local; the coordinator adds the shard offset.
	Idx int
	Acc float64
}

// rowReq fetches one row (shard-local index) of the current view; the
// reply body is the row.
type rowReq struct{ I int }

// gatherReq fetches the shard's []int scratch Key.
type gatherReq struct{ Key string }
