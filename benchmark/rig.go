package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"planarflow/internal/fleet"
	"planarflow/internal/flowd"
	"planarflow/internal/store"
)

const replicas = 2

// rig is one serving fleet: in-process replicas behind a fleet client
// on the binary wire with one connection per replica.
type rig struct {
	reps    []*fleet.Replica
	fc      *fleet.Client
	spill   string
	stopped bool
}

// startRig boots the replicas, registers and warms the working set
// through the ring, and sends one query per graph so every connection
// is dialed before the measured window.
func startRig(ctx context.Context, w workload, o *oracle, spillDir string) (*rig, error) {
	cfg := store.Config{}
	r := &rig{}
	if w.residentShare > 0 {
		cfg.MaxBytes = int64(w.residentShare * float64(o.bytes))
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(spillDir, w.name+"-")
		if err != nil {
			return nil, err
		}
		r.spill, cfg.SpillDir = dir, dir
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	members := make([]fleet.Member, replicas)
	for i := 0; i < replicas; i++ {
		rep, err := fleet.StartReplica(fleet.ReplicaConfig{
			Name: fmt.Sprintf("r%d", i), Store: cfg, Wire: true, Logger: quiet,
		})
		if err != nil {
			r.stop()
			return nil, err
		}
		r.reps = append(r.reps, rep)
		members[i] = rep.Member()
	}
	fc, err := fleet.New(members, fleet.Options{
		Wire:        true,
		WireOptions: flowd.WireOptions{PoolSize: 1},
	})
	if err != nil {
		r.stop()
		return nil, err
	}
	r.fc = fc
	for i, sp := range o.specs {
		if err := fc.Register(ctx, graphID(i), sp); err != nil {
			r.stop()
			return nil, fmt.Errorf("register %s: %w", graphID(i), err)
		}
	}
	for i := range o.specs {
		req := flowd.QueryRequest{Graph: graphID(i), Op: "dist", U: 0, V: 1}
		if _, err := fc.Query(ctx, req); err != nil {
			r.stop()
			return nil, fmt.Errorf("first query %s: %w", graphID(i), err)
		}
	}
	for _, rep := range r.reps {
		rep.Store.FlushSpills()
	}
	return r, nil
}

// replica returns the replica that owns graph.
func (r *rig) replica(graph string) *fleet.Replica {
	name, _ := r.fc.Owner(graph)
	for _, rep := range r.reps {
		if rep.Name == name {
			return rep
		}
	}
	return nil
}

// stop closes the client, kills the replicas, waits for their spills
// and removes the spill directory. A second call does nothing.
func (r *rig) stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	if r.fc != nil {
		r.fc.Close()
	}
	for _, rep := range r.reps {
		rep.Stop()
		rep.Store.FlushSpills()
	}
	if r.spill != "" {
		os.RemoveAll(r.spill)
	}
}

// setUp starts the rig n times and keeps the last; every start but the
// last is torn down. It returns each start's time in seconds.
func setUp(ctx context.Context, w workload, o *oracle, spillDir string, n int) (*rig, []float64, error) {
	times := make([]float64, 0, n)
	var r *rig
	for i := 0; i < n; i++ {
		if r != nil {
			r.stop()
		}
		t0 := time.Now()
		var err error
		if r, err = startRig(ctx, w, o, spillDir); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return r, times, nil
}
