package dist_test

import (
	"context"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"m3"
	"m3/internal/core"
	"m3/internal/dist"
)

// TestSGDRejected checks the sequential trainer is refused with a
// useful message when handed a dataset sharded by the coordinator.
// The refusal lives in the estimator, so this test sits in the
// external package to reach it without an import cycle.
func TestSGDRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.m3")
	if err := m3.GenerateInfimnist(path, 600, 4); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		w := dist.NewWorker(dist.WorkerConfig{Mode: core.InMemory, Workers: 1})
		go w.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			w.Shutdown(ctx)
		})
	}
	c, err := dist.DialWorkers(context.Background(), addrs, dist.Options{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ds, err := c.Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Shards == nil {
		t.Fatal("coordinator returned a dataset without shards")
	}
	_, err = m3.SGDClassifier{Binarize: true, Positive: 1}.Fit(context.Background(), ds)
	if err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("err = %v, want sequential-trainer rejection", err)
	}
}
