package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// missLatencyMs is the latency charged to a refused or failed
// request: every refusal counts as missing any latency limit.
const missLatencyMs = 10000

// poissonSchedule returns the due offsets of an open-loop arrival
// process at rate requests per second over dur: exponential gaps
// drawn from seed, so the same seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// loadTarget is what an open loop sends: request bodies cycled by
// index and the prediction each must come back with.
type loadTarget struct {
	url    string
	bodies [][]byte
	expect []float64
}

// loadResult is one open-loop phase.
type loadResult struct {
	latMs   []float64 // every request, from due time; misses charged missLatencyMs
	lateMs  []float64 // how late the generator handed each request off
	sent    int
	refused int // 429/503/other status or transport error
	wrong   int // answered with a prediction that differs from the local one
	spans   []reqSpan
}

// reqSpan is one request's interval, kept for the traced report.
type reqSpan struct{ due, done time.Time }

type job struct {
	i   int
	due time.Time
}

// newClients returns conns HTTP clients, each pinned to one
// persistent keep-alive connection.
func newClients(conns int) []*http.Client {
	out := make([]*http.Client, conns)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// openLoop sends target's requests on sched regardless of how fast
// answers come back: a dispatcher releases each request at its due
// time, and one sender per client takes the next released request as
// soon as its connection is free. Latency runs from the due time, so
// time a request waits behind a stalled connection counts.
func openLoop(ctx context.Context, clients []*http.Client, sched []time.Duration, tgt loadTarget) loadResult {
	res := loadResult{
		latMs:  make([]float64, len(sched)),
		lateMs: make([]float64, len(sched)),
		spans:  make([]reqSpan, len(sched)),
		sent:   len(sched),
	}
	jobs := make(chan job, len(sched))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for j := range jobs {
				pred, ok := post(ctx, c, tgt.url, tgt.bodies[j.i%len(tgt.bodies)])
				done := time.Now()
				mu.Lock()
				res.spans[j.i] = reqSpan{j.due, done}
				switch {
				case !ok:
					res.refused++
					res.latMs[j.i] = missLatencyMs
				case math.Float64bits(pred) != math.Float64bits(tgt.expect[j.i%len(tgt.expect)]):
					res.wrong++
					res.latMs[j.i] = missLatencyMs
				default:
					res.latMs[j.i] = float64(done.Sub(j.due).Nanoseconds()) / 1e6
				}
				mu.Unlock()
			}
		}(c)
	}
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateMs[i] = float64(time.Since(due).Nanoseconds()) / 1e6
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return res
}

// post sends one predict request and returns its single prediction;
// ok is false on a transport error or a non-200 answer.
func post(ctx context.Context, c *http.Client, url string, body []byte) (float64, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var out struct {
		Predictions []float64 `json:"predictions"`
	}
	if json.Unmarshal(b, &out) != nil || len(out.Predictions) != 1 {
		return 0, false
	}
	return out.Predictions[0], true
}
