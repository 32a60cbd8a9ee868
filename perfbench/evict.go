package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// maxResidentFrac is the share of a table that may stay resident
// after an eviction; more fails the run, so an out-of-core workload
// can never quietly measure warm memory.
const maxResidentFrac = 0.01

const (
	madvDontNeed = 4 // MADV_DONTNEED
	fadvDontNeed = 4 // POSIX_FADV_DONTNEED
)

// evictor drops a mapped table's pages from RAM: madvise(DONTNEED)
// unmaps them from the process, posix_fadvise(DONTNEED) then drops
// them from the page cache, and mincore confirms the result. Later
// reads of the table page in from disk again.
type evictor struct {
	keep   []float64 // the mapped elements; keeps the mapping reachable
	addr   uintptr   // page-aligned start of the range
	length uintptr   // page-rounded length
	f      *os.File  // the table file, for fadvise
}

// newEvictor covers the elements data, which must be a view of a
// mapping of the file at path.
func newEvictor(data []float64, path string) (*evictor, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("evict: empty table")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ps := uintptr(os.Getpagesize())
	start := uintptr(unsafe.Pointer(&data[0]))
	end := start + uintptr(len(data))*8
	addr := start &^ (ps - 1)
	length := (end - addr + ps - 1) &^ (ps - 1)
	return &evictor{keep: data, addr: addr, length: length, f: f}, nil
}

func (e *evictor) close() error { return e.f.Close() }

// pages returns the number of pages the range spans.
func (e *evictor) pages() int { return int(e.length / uintptr(os.Getpagesize())) }

// evict drops the range from RAM and returns how many of its pages
// are still resident. It fails when more than maxResidentFrac are.
func (e *evictor) evict() (int, error) {
	if _, _, errno := syscall.Syscall(syscall.SYS_MADVISE, e.addr, e.length, madvDontNeed); errno != 0 {
		return 0, fmt.Errorf("evict: madvise: %w", errno)
	}
	// Dirty pages survive fadvise; a freshly generated table may
	// still have some.
	if err := e.f.Sync(); err != nil {
		return 0, fmt.Errorf("evict: fsync: %w", err)
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64, e.f.Fd(), 0, 0, fadvDontNeed, 0, 0); errno != 0 {
		return 0, fmt.Errorf("evict: fadvise: %w", errno)
	}
	res, err := e.resident()
	if err != nil {
		return 0, err
	}
	return res, checkEvicted(res, e.pages())
}

// resident counts the range's pages in RAM with mincore(2).
func (e *evictor) resident() (int, error) {
	vec := make([]byte, e.pages())
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, e.addr, e.length, uintptr(unsafe.Pointer(&vec[0])))
	runtime.KeepAlive(e.keep)
	if errno != 0 {
		return 0, fmt.Errorf("evict: mincore: %w", errno)
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n, nil
}

// checkEvicted fails when more than maxResidentFrac of total pages
// are resident.
func checkEvicted(resident, total int) error {
	if total <= 0 {
		return fmt.Errorf("evict: empty range")
	}
	if float64(resident) > maxResidentFrac*float64(total) {
		return fmt.Errorf("evict: %d of %d pages still resident (limit %.0f%%)", resident, total, 100*maxResidentFrac)
	}
	return nil
}
