// Command m3worker serves one row shard of a training cluster. A
// coordinator (m3train -dist, or m3.DialCluster) connects, tells the
// worker which contiguous merge-group-aligned row range of a dataset
// file it owns, and drives per-iteration scan rounds over it; all
// model math stays on the coordinator, so the wire carries only
// per-group partial states. The worker runs whatever passes and
// pipeline stages the linked packages register; importing package m3
// links every estimator's.
//
// Each accepted connection gets its own storage engine and shard
// state, torn down when the connection closes. SIGTERM and SIGINT
// drain in-flight requests (bounded by -drain) before exiting.
//
// Usage:
//
//	m3worker -listen :7071 [-backend mmap|heap|auto] [-workers 4]
//	m3worker -listen 127.0.0.1:0   # ephemeral port, printed on stdout
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"m3"
	"m3/internal/dist"
	"m3/internal/obs"
)

func main() {
	var (
		listen  = flag.String("listen", ":7071", "address to listen on (host:0 picks an ephemeral port)")
		backend = flag.String("backend", "mmap", "storage backend for shards: mmap, heap or auto")
		workers = flag.Int("workers", 0, "shard scan worker pool (0 = NumCPU)")
		budget  = flag.Int64("budget", 0, "auto-mode memory budget in bytes (0 = engine default)")
		drain   = flag.Duration("drain", 30*time.Second, "max wait for in-flight requests on shutdown")
		metrics = flag.String("metrics", "", "serve Prometheus /metrics on this address (empty = off)")
	)
	flag.Parse()
	if err := run(*listen, *backend, *workers, *budget, *drain, *metrics); err != nil {
		fmt.Fprintf(os.Stderr, "m3worker: %v\n", err)
		os.Exit(1)
	}
}

func run(listen, backend string, workers int, budget int64, drain time.Duration, metrics string) error {
	var mode m3.Mode
	switch backend {
	case "mmap":
		mode = m3.MemoryMapped
	case "heap":
		mode = m3.InMemory
	case "auto":
		mode = m3.Auto
	default:
		return fmt.Errorf("unknown backend %q", backend)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	// The resolved address on stdout is the contract scripts rely on
	// when listening on an ephemeral port.
	fmt.Printf("m3worker: listening on %s (backend=%s)\n", ln.Addr(), backend)

	if metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			obs.Default().WritePrometheus(w)
		})
		go func() {
			if err := http.ListenAndServe(metrics, mux); err != nil {
				fmt.Fprintf(os.Stderr, "m3worker: metrics: %v\n", err)
			}
		}()
	}

	w := dist.NewWorker(dist.WorkerConfig{Mode: mode, MemoryBudget: budget, Workers: workers})

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- w.Serve(ln) }()

	select {
	case err := <-done:
		return err
	case sig := <-sigs:
		fmt.Printf("m3worker: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := w.Shutdown(ctx)
		<-done
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Println("m3worker: drained")
		return nil
	}
}
