package main

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSamplesKeepsConcurrentAddsAndCountsOverflow(t *testing.T) {
	s, err := newSamples(1000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.free()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s.add(time.Duration(g*1000+i), int64(g))
			}
		}(g)
	}
	wg.Wait()
	lat, done, lost := s.kept()
	if len(lat) != 1000 || len(done) != 1000 || lost != 200 {
		t.Fatalf("kept %d latencies, %d completions, lost %d; want 1000, 1000, 200", len(lat), len(done), lost)
	}
	for i, d := range lat {
		if g := int64(d) / 1000; g != done[i] {
			t.Fatalf("sample %d: latency %v paired with completion %d", i, d, done[i])
		}
	}
}

func TestSamplesKeepsOrderOfOneSender(t *testing.T) {
	s, err := newSamples(8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.free()
	for i := 1; i <= 3; i++ {
		s.add(time.Duration(i), int64(10*i))
	}
	lat, done, lost := s.kept()
	if !slices.Equal(lat, durations(1, 2, 3)) || !slices.Equal(done, []int64{10, 20, 30}) || lost != 0 {
		t.Fatalf("kept %v %v, lost %d", lat, done, lost)
	}
}
