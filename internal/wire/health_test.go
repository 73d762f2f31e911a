package wire

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDialFailureIsUnavailable(t *testing.T) {
	p := NewPool("tcp", "127.0.0.1:1", 1) // reserved port: nothing listens
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _, err := p.Do(ctx, OpQueryB, []byte("x"))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dial failure not typed Unavailable: %v", err)
	}
}

func TestHealthSweepRemovesDeadConns(t *testing.T) {
	h := &echoHandler{release: make(chan struct{})}
	srv, addr := startServer(t, h)
	p := NewPool("tcp", addr, 2)
	defer p.Close()
	ctx := context.Background()
	if err := p.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill the server side: established conns are now dead, but the pool
	// does not know until it touches them.
	srv.Close()
	p.StartHealthSweep(10 * time.Millisecond)

	// The sweep must discover the death on its own — without any caller
	// traffic — and mark the conns failed so the next Do redials instead
	// of writing into a dead socket.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		dead := 0
		for _, c := range p.conns {
			if c != nil && c.isDead() {
				dead++
			}
		}
		p.mu.Unlock()
		if dead > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never detected the dead connections")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart a server on a fresh address via a new pool path is not
	// possible (addr is fixed), so just verify Do now fails Unavailable
	// fast (redial refused) rather than hanging on a dead socket.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, _, err := p.Do(dctx, OpQueryB, []byte("x")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("post-sweep Do: %v", err)
	}
}

func TestHealthSweepStartGuards(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	p := NewPool("tcp", addr, 1)
	p.StartHealthSweep(time.Hour)
	p.StartHealthSweep(time.Hour) // second start is a no-op, not a second goroutine
	p.StartHealthSweep(0)         // non-positive interval ignored
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := NewPool("tcp", addr, 1)
	p2.Close()
	p2.StartHealthSweep(time.Hour) // starting after Close is a no-op
}

// TestShutdownDrainsInFlight: Shutdown must stop accepting, let an
// in-flight request finish and deliver its response, then close.
func TestShutdownDrainsInFlight(t *testing.T) {
	h := &echoHandler{release: make(chan struct{})}
	srv, addr := startServer(t, h)
	p := NewPool("tcp", addr, 1)
	defer p.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	resCh := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		st, body, err := p.Do(ctx, OpQueryB, []byte("block:drained"))
		if err != nil {
			errCh <- err
			return
		}
		if st != StatusOK {
			errCh <- errors.New("status " + st.String())
			return
		}
		resCh <- body
	}()

	// Wait until the request is parked in the handler.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().FramesIn < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()
	time.Sleep(20 * time.Millisecond) // shutdown is now waiting on the handler
	close(h.release)                  // let the in-flight request finish

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("in-flight request lost during drain: %v", err)
	case body := <-resCh:
		if !bytes.Equal(body, []byte("drained")) {
			t.Fatalf("drained response %q", body)
		}
	}

	// New connections are refused after drain.
	p2 := NewPool("tcp", addr, 1)
	defer p2.Close()
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, _, err := p2.Do(dctx, OpQueryB, []byte("x")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("post-shutdown dial: %v", err)
	}
}

// TestShutdownTimeoutFallsBackToClose: a handler that never finishes
// must not wedge Shutdown — the ctx deadline forces the abrupt path.
func TestShutdownTimeoutFallsBackToClose(t *testing.T) {
	h := &echoHandler{release: make(chan struct{})}
	defer close(h.release)
	srv, addr := startServer(t, h)
	p := NewPool("tcp", addr, 1)
	defer p.Close()
	ctx := context.Background()

	go p.Do(ctx, OpQueryB, []byte("block:never"))
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().FramesIn < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck shutdown returned %v, want deadline", err)
	}
}
