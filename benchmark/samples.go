package main

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// maxAnswerRate sizes the sample store: answers per measured second it
// can keep, several times what one process serves over loopback on a
// few cores.
const maxAnswerRate = 1 << 18

// samples keeps the measured window's latencies and completion times
// outside the Go heap, in anonymous memory mapped before the window and
// touched only as it fills. heap_mb then measures the serving stack,
// not how many answers the benchmark has kept, so a faster program
// does not read as a bigger one.
type samples struct {
	n    atomic.Int64
	lat  []time.Duration
	done []int64 // Unix ns
	maps [][]byte
}

func newSamples(capacity int) (*samples, error) {
	s := &samples{}
	lat, err := s.mapWords(capacity)
	if err != nil {
		return nil, err
	}
	done, err := s.mapWords(capacity)
	if err != nil {
		s.free()
		return nil, err
	}
	s.lat = unsafe.Slice((*time.Duration)(lat), capacity)
	s.done = unsafe.Slice((*int64)(done), capacity)
	return s, nil
}

// mapWords maps n zeroed 8-byte words that hold no pointers.
func (s *samples) mapWords(n int) (unsafe.Pointer, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("sample store: mmap %d words: %w", n, err)
	}
	s.maps = append(s.maps, b)
	return unsafe.Pointer(unsafe.SliceData(b)), nil
}

// add keeps one answer's latency and completion time; it is safe for
// concurrent use. An answer past the store's capacity is counted but
// not kept (see kept).
func (s *samples) add(d time.Duration, done int64) {
	if i := s.n.Add(1) - 1; i < int64(len(s.lat)) {
		s.lat[i], s.done[i] = d, done
	}
}

// kept returns the kept samples and how many answers did not fit.
func (s *samples) kept() (lat []time.Duration, done []int64, lost int) {
	n := int(s.n.Load())
	k := min(n, len(s.lat))
	return s.lat[:k], s.done[:k], n - k
}

// free unmaps the store; the slices kept returned must not be used
// after it.
func (s *samples) free() {
	for _, b := range s.maps {
		syscall.Munmap(b)
	}
	s.maps, s.lat, s.done = nil, nil, nil
}
