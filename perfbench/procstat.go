package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssAnon returns the process's resident anonymous memory in bytes
// (Go heap, stacks, heap scratch), which excludes mapped file pages.
func rssAnon() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "RssAnon:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// memSampler tracks the peak of rssAnon while it runs.
type memSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak int64
}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), peak: rssAnon()}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.observe()
			}
		}
	}()
	return m
}

func (m *memSampler) observe() {
	v := rssAnon()
	m.mu.Lock()
	m.peak = max(m.peak, v)
	m.mu.Unlock()
}

// finish stops sampling and returns the peak in bytes.
func (m *memSampler) finish() int64 {
	close(m.stop)
	m.done.Wait()
	m.observe()
	return m.peak
}
