package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"amoeba/internal/experiments"
	"amoeba/kv"
)

// The reshard experiment measures live resharding: what a 4→8 split costs a
// store under continuous client load (ops/s before, during, and after the
// handoff) and how much data it moves — the consistent-hash ring's
// (new−old)/new against the (new−1)/new an assignment that ignores placement
// would move. The during/before ratio and the moved fraction are the
// measurement.

// reshardPhase is one load window's throughput.
type reshardPhase struct {
	Phase      string  `json:"phase"` // before | during | after
	Ops        uint64  `json:"ops"`
	DurationMs float64 `json:"duration_ms"`
	OpsPerSec  float64 `json:"ops_per_sec"`
}

type reshardResult struct {
	OldShards int `json:"old_shards"`
	NewShards int `json:"new_shards"`
	Nodes     int `json:"nodes"`
	Keys      int `json:"keys"`

	Phases []reshardPhase `json:"phases"`
	// DuringVsBefore is the throughput retained while the handoff ran.
	DuringVsBefore float64 `json:"during_vs_before"`
	// ReshardMs is the wall-clock duration of Resharding under load.
	ReshardMs float64 `json:"reshard_ms"`

	// MovedKeys/MovedRatio: keys whose owner changed under the new table
	// (consistent hashing: ≈ (new−old)/new). NaiveRatio is the fraction an
	// independent reassignment of the same keys moves (≈ (new−1)/new) —
	// the rehash a placement-oblivious scheme would pay.
	MovedKeys  int     `json:"moved_keys"`
	MovedRatio float64 `json:"moved_ratio"`
	NaiveRatio float64 `json:"naive_ratio"`

	// Errors counts client operations that failed during the whole run
	// (must be 0: the handoff holds, it does not fail).
	Errors uint64 `json:"errors"`
}

// reshard runs the split-under-load measurement.
func reshard(ctx context.Context) (*experiments.Table, any, error) {
	const (
		nodes     = 4
		oldShards = 4
		newShards = 8
		keys      = 2000
		clients   = 8
		window    = 700 * time.Millisecond
	)
	c, err := newCluster(ctx, "reshard-bench", nodes, kv.Options{Shards: oldShards})
	if err != nil {
		return nil, nil, err
	}
	defer c.close()

	// Seed the keyspace, remembering each key's owner under the old table.
	seed := c.stores[0].NewClient()
	pairs := make([]kv.Pair, keys)
	oldShard := make([]int, keys)
	for i := range pairs {
		k := fmt.Sprintf("bench-%05d", i)
		pairs[i] = kv.Pair{Key: k, Val: []byte(fmt.Sprintf("v%05d", i))}
		oldShard[i] = c.stores[0].ShardFor(k)
	}
	if err := seed.BatchPut(ctx, pairs); err != nil {
		return nil, nil, fmt.Errorf("seeding: %w", err)
	}
	seed.Close()

	// Continuous load for the whole run; phase boundaries are sampled from
	// the load's op counter.
	cls := make([]*kv.Client, clients)
	for i := range cls {
		cls[i] = c.stores[i%nodes].NewClient()
		defer cls[i].Close()
	}
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	l := drive(loadCtx, loadCtx, clients, func(ctx context.Context, w, i int) error {
		k := pairs[(w*31+i)%keys].Key
		if i%5 == 0 {
			_, _, err := cls[w].Get(ctx, k)
			return err
		}
		return cls[w].Put(ctx, k, []byte("w"))
	})
	phase := func(name string, run func() error) (reshardPhase, error) {
		startOps, start := l.ops.Load(), time.Now()
		err := run()
		d, n := time.Since(start), l.ops.Load()-startOps
		return reshardPhase{
			Phase:      name,
			Ops:        n,
			DurationMs: float64(d.Microseconds()) / 1000,
			OpsPerSec:  float64(n) / d.Seconds(),
		}, err
	}
	sleep := func() error {
		select {
		case <-time.After(window):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	before, err := phase("before", sleep)
	if err != nil {
		return nil, nil, err
	}
	during, err := phase("during", func() error { return c.stores[1].Resharding(ctx, newShards) })
	if err != nil {
		return nil, nil, fmt.Errorf("resharding under load: %w", err)
	}
	after, err := phase("after", sleep)
	if err != nil {
		return nil, nil, err
	}
	stopLoad()
	l.wait()
	if l.err != nil {
		return nil, nil, fmt.Errorf("%d client operations failed during the handoff; first: %w", l.errs.Load(), l.err)
	}

	res := &reshardResult{
		OldShards: oldShards, NewShards: newShards, Nodes: nodes, Keys: keys,
		Phases:    []reshardPhase{before, during, after},
		ReshardMs: during.DurationMs,
		Errors:    l.errs.Load(),
	}
	if before.OpsPerSec > 0 {
		res.DuringVsBefore = during.OpsPerSec / before.OpsPerSec
	}
	naive := 0
	for i, p := range pairs {
		if c.stores[1].ShardFor(p.Key) != oldShard[i] {
			res.MovedKeys++
		}
		// An independent reassignment keeps a key only by the 1/new
		// chance that the fresh placement lands where it already was.
		if independentShard(p.Key, newShards) != oldShard[i] {
			naive++
		}
	}
	res.MovedRatio = float64(res.MovedKeys) / keys
	res.NaiveRatio = float64(naive) / keys
	// Sanity: the final table must serve every key exactly once.
	check := c.stores[2].NewClient()
	defer check.Close()
	for i := 0; i < keys; i += 97 {
		if _, ok, err := check.Get(ctx, pairs[i].Key); err != nil || !ok {
			return nil, nil, fmt.Errorf("key %q after split: found=%v err=%v", pairs[i].Key, ok, err)
		}
	}

	t := &experiments.Table{
		ID:    "Live resharding",
		Title: fmt.Sprintf("%d→%d split under continuous load (%d nodes, %d keys, live in-memory fabric)", oldShards, newShards, nodes, keys),
		PaperNote: "the paper's applications added groups under load; the epoch-versioned routing table turns that into a first-class store operation " +
			"(sequenced migrate-begin/chunk/commit through each group's total order)",
		Columns: []string{"measure", "result", "note"},
	}
	for _, p := range res.Phases {
		t.Rows = append(t.Rows, []string{
			"ops/s " + p.Phase,
			fmt.Sprintf("%.0f", p.OpsPerSec),
			fmt.Sprintf("%d ops / %.0f ms", p.Ops, p.DurationMs),
		})
	}
	t.Rows = append(t.Rows,
		[]string{"throughput retained during handoff", fmt.Sprintf("%.2fx", res.DuringVsBefore), fmt.Sprintf("handoff took %.0f ms", res.ReshardMs)},
		[]string{"keys moved (consistent hash)", fmt.Sprintf("%.1f%%", 100*res.MovedRatio), fmt.Sprintf("%d of %d", res.MovedKeys, keys)},
		[]string{"keys an independent rehash would move", fmt.Sprintf("%.1f%%", 100*res.NaiveRatio), "≈ (new−1)/new"},
	)
	return t, res, nil
}

// independentShard places key on one of shards by a hash unrelated to the
// ring's points: FNV-1a of a salted key, avalanched by the fmix64 finalizer
// so sequential keys spread uniformly.
func independentShard(key string, shards int) int {
	f := fnv.New64a()
	f.Write([]byte(key + "#independent-rehash"))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(shards))
}
