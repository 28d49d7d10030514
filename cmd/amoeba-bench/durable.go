package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"amoeba"
	"amoeba/internal/experiments"
	"amoeba/shared"
	"amoeba/wal"
)

// The durable experiment measures what the durable history costs and buys:
// ordered throughput through a replicated state machine with journaling off,
// on, and fsynced, and cold-start recovery time against log size.

// durableThroughput is one journaling mode's ordered-throughput point.
type durableThroughput struct {
	// Mode is "memory" (no log), "wal" (journal, OS-buffered), or
	// "wal+fsync" (journal, fsync per record).
	Mode       string  `json:"mode"`
	CmdsPerSec float64 `json:"cmds_per_sec"`
	// VsMemory is the ratio against the in-memory baseline.
	VsMemory float64 `json:"vs_memory"`
}

// durableRecovery is one cold-start recovery timing.
type durableRecovery struct {
	// Entries is the journaled entry count at crash time.
	Entries int `json:"entries"`
	// Checkpointed reports whether a snapshot checkpoint covered the
	// whole log (replay then handles only the empty suffix).
	Checkpointed bool `json:"checkpointed"`
	// LogBytes is the on-disk log size recovered from.
	LogBytes int64 `json:"log_bytes"`
	// RecoverMs is the wall time of open + restore + replay.
	RecoverMs float64 `json:"recover_ms"`
	// Replayed counts entries actually replayed (after the checkpoint).
	Replayed uint64 `json:"replayed"`
}

type durableResult struct {
	Throughput []durableThroughput `json:"throughput"`
	Recovery   []durableRecovery   `json:"recovery"`
}

// counterSM is a minimal state machine for the measurement: apply counts
// commands, snapshots are 8 bytes.
type counterSM struct{ n uint64 }

func (s *counterSM) Apply([]byte) { s.n++ }
func (s *counterSM) Snapshot() ([]byte, error) {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, s.n)
	return out, nil
}
func (s *counterSM) Restore(snap []byte) error {
	if len(snap) >= 8 {
		s.n = binary.BigEndian.Uint64(snap)
	}
	return nil
}

const (
	durableMembers = 3
	durableCmds    = 4000
	durableBurst   = 32
	durablePayload = 64
)

// durable runs the throughput points, then the recovery points.
func durable(ctx context.Context) (*experiments.Table, any, error) {
	res := &durableResult{}
	var base float64
	for _, mode := range []string{"memory", "wal", "wal+fsync"} {
		cps, err := durableThroughputPoint(ctx, mode)
		if err != nil {
			return nil, nil, fmt.Errorf("durable throughput (%s): %w", mode, err)
		}
		r := durableThroughput{Mode: mode, CmdsPerSec: cps}
		if base == 0 {
			base = cps
		}
		if base > 0 {
			r.VsMemory = cps / base
		}
		res.Throughput = append(res.Throughput, r)
	}
	for _, p := range []struct {
		entries int
		ckpt    bool
	}{{1000, false}, {10000, false}, {50000, false}, {50000, true}} {
		r, err := durableRecoveryPoint(p.entries, p.ckpt)
		if err != nil {
			return nil, nil, fmt.Errorf("durable recovery (%d entries): %w", p.entries, err)
		}
		res.Recovery = append(res.Recovery, r)
	}

	t := &experiments.Table{
		ID:        "Durable history",
		Title:     "write-ahead log: ordered throughput by journaling mode, and cold-start recovery time vs log size (live fabric + real disk)",
		PaperNote: "the paper's history is in-memory only (r crashes lose nothing, a whole-cluster power loss everything); the WAL extends the fault-tolerance-for-performance trade to full restarts",
		Columns:   []string{"case", "result", "note"},
	}
	for _, r := range res.Throughput {
		t.Rows = append(t.Rows, []string{
			"ordered throughput, " + r.Mode,
			fmt.Sprintf("%.0f cmds/s", r.CmdsPerSec),
			fmt.Sprintf("%.2fx in-memory", r.VsMemory),
		})
	}
	for _, r := range res.Recovery {
		label := fmt.Sprintf("recovery, %d entries", r.Entries)
		if r.Checkpointed {
			label += " + checkpoint"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.2f ms", r.RecoverMs),
			fmt.Sprintf("%d KiB log, %d replayed", r.LogBytes/1024, r.Replayed),
		})
	}
	return t, res, nil
}

// durableThroughputPoint measures ordered commands/s through a 3-member
// replicated state machine in the given journaling mode.
func durableThroughputPoint(ctx context.Context, mode string) (float64, error) {
	network := amoeba.NewMemoryNetwork()
	defer network.Close()

	var dir string
	if mode != "memory" {
		d, err := os.MkdirTemp("", "amoeba-durable-bench-")
		if err != nil {
			return 0, err
		}
		dir = d
		defer os.RemoveAll(dir)
	}

	name := "durable-bench-" + mode
	reps := make([]*shared.Replica, 0, durableMembers)
	defer func() {
		for _, r := range reps {
			r.Close()
		}
	}()
	for i := 0; i < durableMembers; i++ {
		k, err := network.NewKernel(fmt.Sprintf("bench-%s-%d", mode, i))
		if err != nil {
			return 0, err
		}
		var r *shared.Replica
		switch {
		case mode == "memory" && i == 0:
			r, err = shared.Create(ctx, k, name, &counterSM{}, amoeba.GroupOptions{})
		case mode == "memory":
			r, err = shared.Join(ctx, k, name, &counterSM{}, amoeba.GroupOptions{})
		default:
			r, err = shared.Open(ctx, k, name, &counterSM{}, amoeba.GroupOptions{}, shared.Durability{
				Dir:       filepath.Join(dir, fmt.Sprintf("r%d", i)),
				Sync:      mode == "wal+fsync",
				Rank:      i,
				Peers:     durableMembers,
				Bootstrap: true,
			})
		}
		if err != nil {
			return 0, fmt.Errorf("member %d (%s): %w", i, mode, err)
		}
		reps = append(reps, r)
	}

	payload := make([]byte, durablePayload)
	burst := make([][]byte, durableBurst)
	for i := range burst {
		burst[i] = payload
	}
	submit := func(total int) error {
		for sent := 0; sent < total; sent += len(burst) {
			if err := reps[0].SubmitBatch(ctx, burst); err != nil {
				return err
			}
		}
		return nil
	}
	applied := func() uint64 {
		var n uint64
		reps[0].Read(func(sm shared.StateMachine) { n = sm.(*counterSM).n })
		return n
	}
	// Warm up, then measure until the submitting member has applied all.
	if err := submit(10 * durableBurst); err != nil {
		return 0, err
	}
	base := applied()
	start := time.Now()
	if err := submit(durableCmds); err != nil {
		return 0, err
	}
	err := reps[0].Wait(ctx, func(sm shared.StateMachine) bool {
		return sm.(*counterSM).n >= base+durableCmds
	})
	if err != nil {
		return 0, err
	}
	return float64(durableCmds) / time.Since(start).Seconds(), nil
}

// durableRecoveryPoint journals entries (128-byte payloads, 16-entry batch
// records), optionally checkpoints the whole history, then times a cold
// open + restore + replay.
func durableRecoveryPoint(entries int, checkpointed bool) (durableRecovery, error) {
	res := durableRecovery{Entries: entries, Checkpointed: checkpointed}
	dir, err := os.MkdirTemp("", "amoeba-durable-recovery-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return res, err
	}
	payload := make([]byte, 128)
	batch := make([]wal.Entry, 0, 16)
	for seq := uint32(1); seq <= uint32(entries); seq++ {
		batch = append(batch, wal.Entry{Seq: seq, Payload: payload})
		if len(batch) == cap(batch) || seq == uint32(entries) {
			if err := log.Append(batch); err != nil {
				return res, err
			}
			batch = batch[:0]
		}
	}
	if checkpointed {
		if err := log.Checkpoint(uint32(entries), payload); err != nil {
			return res, err
		}
	}
	if err := log.Close(); err != nil {
		return res, err
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return res, err
	}
	for _, de := range files {
		if info, err := de.Info(); err == nil {
			res.LogBytes += info.Size()
		}
	}

	start := time.Now()
	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return res, err
	}
	defer l2.Close()
	var sm counterSM
	if _, err := l2.Recover(
		func(snap []byte, seq uint32) error { return sm.Restore(snap) },
		func(e wal.Entry) error { sm.Apply(e.Payload); return nil },
	); err != nil {
		return res, err
	}
	res.RecoverMs = float64(time.Since(start).Microseconds()) / 1000
	res.Replayed = l2.Stats().RecoveredEntries
	return res, nil
}
