package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"m3"
)

const (
	// tableRows × 784 float64 = 462 MB (441 MiB): over 4× a 105 MiB
	// L3, so scans measure memory rather than cache, and small enough
	// that two copies fit well inside 7 GB of RAM.
	tableRows = 73728
	// cacheDir holds generated inputs and reference results by seed.
	cacheDir = ".bench_cache"
	// maxCachedSeeds bounds the tables on disk (~0.46 GB a seed).
	maxCachedSeeds = 10
	// maxCachedBuilds bounds the builds whose (tiny) reference
	// results are kept.
	maxCachedBuilds = 4
	// printRows is how many leading rows fingerprint the generator.
	printRows = 16
)

// inputs are one seed's generated files, cached across runs.
type inputs struct {
	seed  int64
	dir   string
	table string
	build string // hash of the running binary, which keys the reference results
}

// tableBytes is the feature payload size of the generated table.
func tableBytes() float64 { return float64(tableRows) * m3.InfimnistFeatures * 8 }

// newInputs returns the seed's cache paths and marks the seed as
// recently used. The table's name carries a fingerprint of the
// generator's output, so a changed generator never reuses a stale
// table.
func newInputs(seed int64) (*inputs, error) {
	dir := filepath.Join(cacheDir, "seed-"+strconv.FormatInt(seed, 10))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	now := time.Now()
	_ = os.Chtimes(dir, now, now) // recency for pruning only; a stale time costs a cache hit at worst
	gen, err := generatorPrint(dir, seed)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	build, err := fileHash(exe)
	if err != nil {
		return nil, err
	}
	return &inputs{seed: seed, dir: dir, table: filepath.Join(dir, "table-"+gen+".m3"), build: build}, nil
}

// generatorPrint hashes the file m3.GenerateInfimnist writes for the
// seed's first printRows rows.
func generatorPrint(dir string, seed int64) (string, error) {
	p := filepath.Join(dir, "print.tmp")
	defer os.Remove(p)
	if err := m3.GenerateInfimnist(p, printRows, uint64(seed)); err != nil {
		return "", err
	}
	return fileHash(p)
}

// fileHash returns the first 16 hex digits of the file's SHA-256.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ready reports whether the table and the reference results exist.
func (in *inputs) ready() bool {
	lr, km := in.refPaths()
	for _, p := range []string{in.table, lr, km} {
		if _, err := os.Stat(p); err != nil {
			return false
		}
	}
	return true
}

// prepare generates whatever of the seed's inputs is missing: the
// table and the reference results. It is input preparation, not the
// program's set-up, and is never timed.
func (in *inputs) prepare() error {
	if _, err := os.Stat(in.table); err != nil {
		if err := pruneOldest(cacheDir, "seed-", in.dir, maxCachedSeeds); err != nil {
			return err
		}
		stale, _ := filepath.Glob(filepath.Join(in.dir, "table*.m3"))
		for _, p := range stale {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
		tmp := in.table + ".tmp"
		if err := writeTable(tmp, in.seed); err != nil {
			os.Remove(tmp)
			return err
		}
		if err := os.Rename(tmp, in.table); err != nil {
			return err
		}
	}
	_, _, err := in.references()
	return err
}

// writeTable generates the seed's table and syncs the file, so its
// pages are clean (evictable) from the start.
func writeTable(path string, seed int64) error {
	if err := m3.GenerateInfimnist(path, tableRows, uint64(seed)); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// pruneOldest makes room for keep in parent by removing the least
// recently modified other directories named prefix* until fewer than
// limit remain.
func pruneOldest(parent, prefix, keep string, limit int) error {
	ents, err := os.ReadDir(parent)
	if err != nil {
		return err
	}
	type aged struct {
		path string
		mod  time.Time
	}
	var dirs []aged
	for _, e := range ents {
		p := filepath.Join(parent, e.Name())
		if !e.IsDir() || p == keep || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if fi, err := e.Info(); err == nil {
			dirs = append(dirs, aged{p, fi.ModTime()})
		}
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].mod.Before(dirs[j].mod) })
	for i := 0; len(dirs)-i >= limit; i++ {
		if err := os.RemoveAll(dirs[i].path); err != nil {
			return err
		}
	}
	return nil
}

// The benchmark's fits. Every path (heap or mmap, any worker count,
// local or sharded) must produce bit-identical results.
func logregEstimator(workers int, cb func(m3.IterInfo) bool) m3.LogisticRegression {
	est := m3.LogisticRegression{Binarize: true, Positive: 0}
	est.Options.MaxIterations = 10
	est.Options.Workers = workers
	est.Options.Callback = cb
	return est
}

// logregFit and kmeansFit are the fits on the engine's own workers.
func logregFit(cb func(m3.IterInfo) bool) m3.Estimator { return logregEstimator(0, cb) }
func kmeansFit(cb func(m3.IterInfo) bool) m3.Estimator { return kmeansEstimator(0, cb) }

func kmeansEstimator(workers int, cb func(m3.IterInfo) bool) m3.KMeansClustering {
	est := m3.KMeansClustering{}
	est.Options.K = 5
	est.Options.MaxIterations = 4
	est.Options.RunAllIterations = true
	est.Options.Seed = 1
	est.Options.Workers = workers
	est.Options.Callback = cb
	return est
}

// savedBytes saves model into dir and returns the file's bytes.
func savedBytes(model m3.Model, dir string) ([]byte, error) {
	p := filepath.Join(dir, fmt.Sprintf("model-%d.tmp", time.Now().UnixNano()))
	defer os.Remove(p)
	if err := model.Save(p); err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// refPaths returns where the seed's reference results are kept: out
// of the evicted seed directories, under the hash of the running
// binary. The check thus compares paths of one build, and a change
// that moves every path's bits alike recomputes its own reference.
func (in *inputs) refPaths() (logreg, kmeans string) {
	stem := filepath.Join(cacheDir, "refs", "build-"+in.build, "seed-"+strconv.FormatInt(in.seed, 10))
	return stem + "-logreg.model", stem + "-kmeans-inertia"
}

// references returns the seed's reference logreg saved bytes and
// k-means inertia bits, computing them once on a heap-backed table
// with one worker and caching them under the build's hash.
func (in *inputs) references() (logreg []byte, inertia uint64, err error) {
	lrPath, kmPath := in.refPaths()
	lr, err1 := os.ReadFile(lrPath)
	km, err2 := os.ReadFile(kmPath)
	if err1 == nil && err2 == nil {
		bits, err := strconv.ParseUint(string(km), 16, 64)
		return lr, bits, err
	}
	eng := m3.New(m3.Config{Mode: m3.InMemory, Workers: 1, TempDir: in.dir})
	defer eng.Close()
	tbl, err := eng.Open(in.table)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	lm, err := eng.Fit(ctx, logregEstimator(1, nil), tbl)
	if err != nil {
		return nil, 0, err
	}
	if lr, err = savedBytes(lm, in.dir); err != nil {
		return nil, 0, err
	}
	km2, err := eng.Fit(ctx, kmeansEstimator(1, nil), tbl)
	if err != nil {
		return nil, 0, err
	}
	inertia = math.Float64bits(km2.(*m3.FittedKMeans).Inertia)
	buildDir := filepath.Dir(lrPath)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, 0, err
	}
	if err := pruneOldest(filepath.Dir(buildDir), "build-", buildDir, maxCachedBuilds); err != nil {
		return nil, 0, err
	}
	if err := writeAtomic(lrPath, lr); err != nil {
		return nil, 0, err
	}
	return lr, inertia, writeAtomic(kmPath, []byte(strconv.FormatUint(inertia, 16)))
}

func writeAtomic(path string, b []byte) error {
	if err := os.WriteFile(path+".tmp", b, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}
