package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"amoeba"
	"amoeba/internal/experiments"
	"amoeba/kv"
	"amoeba/obs"
)

// The txn experiment measures cross-shard transactions: what sequenced 2PC
// costs as the participant count grows, against the single-shard batch write
// the store could use when atomicity across shards is not needed. Each txn
// case commits W writes spread over W distinct shards (so participants =
// writes); its paired baseline commits the same W writes as one BatchPut on
// one shard — one sequenced command instead of prepare+resolve per
// participant. The txn-vs-batch ratio at each width is the measurement.

// txnCase is one measured configuration.
type txnCase struct {
	// Name is "txn" or "batch"; Participants the shards one commit spans
	// (always 1 for batch), Writes the keys it writes.
	Name         string `json:"name"`
	Participants int    `json:"participants"`
	Writes       int    `json:"writes"`

	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	MeanMs    float64 `json:"mean_ms"`
	P99Ms     float64 `json:"p99_ms"`
	// VsBatch is this case's throughput over its same-width batch baseline
	// (1.0 for the baselines themselves).
	VsBatch float64 `json:"vs_batch"`
}

type txnResult struct {
	Nodes   int       `json:"nodes"`
	Shards  int       `json:"shards"`
	Clients int       `json:"clients"`
	Cases   []txnCase `json:"cases"`
	// Conflicts counts internal txn attempt retries across the run (the
	// workers write disjoint keys, so this must stay 0 — nonzero means the
	// bench itself is contending).
	Conflicts uint64 `json:"conflicts"`
}

// txn measures committed txns/s and commit latency at 1, 2, and 4
// participant shards, each against a single-shard batch of the same write
// count.
func txn(ctx context.Context) (*experiments.Table, any, error) {
	const (
		nodes   = 4
		shards  = 4
		clients = 4
		window  = 700 * time.Millisecond
	)
	// The hub's registry carries the clients' conflict-retry counter.
	hub := obs.NewHub(obs.Options{Node: "bench"})
	c, err := newCluster(ctx, "txn-bench", nodes, kv.Options{Shards: shards, Group: amoeba.GroupOptions{Obs: hub}})
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	conflicts := func() uint64 { return counter(hub, "amoeba_kv_client_txn_conflict_retries_total") }

	// Bucket generated keys by owning shard so a case can pick exactly the
	// shard spread it wants. Each worker owns one key per shard (reused
	// every iteration with fresh values), so concurrent commits never
	// conflict — the bench measures protocol cost, not lock contention.
	keysByShard := make([][]string, shards)
	for i := 0; len(keysByShard[0]) < clients+1 || len(keysByShard[1]) < clients ||
		len(keysByShard[2]) < clients || len(keysByShard[3]) < clients; i++ {
		k := fmt.Sprintf("txn-bench-%05d", i)
		s := c.stores[0].ShardFor(k)
		keysByShard[s] = append(keysByShard[s], k)
	}

	// One long-lived client per worker; measurement runs reuse them.
	cls := make([]*kv.Client, clients)
	for i := range cls {
		cls[i] = c.stores[i%nodes].NewClient()
		defer cls[i].Close()
	}

	measure := func(name string, participants, writes int,
		commit func(ctx context.Context, cl *kv.Client, worker, iter int) error) (txnCase, error) {
		// A short unmeasured warmup absorbs cold paths (route caches, first
		// allocations) and the tail of the previous case's load.
		for w := 0; w < clients; w++ {
			if err := commit(ctx, cls[w], w, -1); err != nil {
				return txnCase{}, fmt.Errorf("%s worker %d warmup: %w", name, w, err)
			}
		}
		// The window is a stop signal checked between commits, not a
		// deadline on them: a commit in flight finishes under ctx.
		// Cancelling a txn mid-2PC would orphan its prepare, and the locks
		// it holds (until the janitor arbitrates) would stall the next
		// case's first ops on the same keys for seconds.
		stop, cancel := context.WithTimeout(ctx, window)
		defer cancel()
		l := drive(ctx, stop, clients, func(ctx context.Context, w, i int) error {
			return commit(ctx, cls[w], w, i)
		}).wait()
		if l.err != nil {
			return txnCase{}, fmt.Errorf("%s: %w", name, l.err)
		}
		lats := l.lats
		tc := txnCase{Name: name, Participants: participants, Writes: writes, Ops: uint64(len(lats))}
		if len(lats) == 0 {
			return tc, fmt.Errorf("%s: no commits completed in the window", name)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		tc.OpsPerSec = l.opsPerSec()
		tc.MeanMs = float64((sum / time.Duration(len(lats))).Microseconds()) / 1000
		tc.P99Ms = float64(lats[len(lats)*99/100].Microseconds()) / 1000
		return tc, nil
	}

	val := func(worker, iter int) []byte { return []byte(fmt.Sprintf("w%d-i%d", worker, iter)) }
	res := &txnResult{Nodes: nodes, Shards: shards, Clients: clients}
	conflicts0 := conflicts()
	for _, width := range []int{1, 2, 4} {
		width := width
		batch, err := measure("batch", 1, width,
			func(ctx context.Context, cl *kv.Client, w, i int) error {
				// width keys, all on shard 0, worker w owning indices
				// [w*width, w*width+width) modulo the bucket. Wrapping can
				// alias two workers onto one key only when the bucket is
				// smaller than clients*width; the generator above sizes
				// buckets past that for the widths measured.
				b := keysByShard[0]
				pairs := make([]kv.Pair, width)
				for j := range pairs {
					pairs[j] = kv.Pair{Key: b[(w*width+j)%len(b)], Val: val(w, i)}
				}
				return cl.BatchPut(ctx, pairs)
			})
		if err != nil {
			return nil, nil, err
		}
		batch.VsBatch = 1
		tx, err := measure("txn", width, width,
			func(ctx context.Context, cl *kv.Client, w, i int) error {
				writes := make([]kv.TxnWrite, width)
				for j := range writes {
					writes[j] = kv.TxnWrite{Key: keysByShard[j][w], Val: val(w, i)}
				}
				r, err := cl.Txn(ctx, kv.TxnOp{Writes: writes})
				if err != nil {
					return err
				}
				if !r.Committed {
					return fmt.Errorf("unconditional txn aborted")
				}
				return nil
			})
		if err != nil {
			return nil, nil, err
		}
		if batch.OpsPerSec > 0 {
			tx.VsBatch = tx.OpsPerSec / batch.OpsPerSec
		}
		res.Cases = append(res.Cases, batch, tx)
	}
	if res.Conflicts = conflicts() - conflicts0; res.Conflicts != 0 {
		return nil, nil, fmt.Errorf("%d txn conflict retries on disjoint keys: the bench is contending", res.Conflicts)
	}

	// Sanity: the last iteration's writes are all readable via one snapshot.
	var keys []string
	for j := 0; j < shards; j++ {
		keys = append(keys, keysByShard[j][0])
	}
	snap, err := cls[0].MGet(ctx, keys...)
	if err != nil {
		return nil, nil, fmt.Errorf("post-bench snapshot: %w", err)
	}
	for _, k := range keys {
		if _, ok := snap[k]; !ok {
			return nil, nil, fmt.Errorf("post-bench snapshot missing %q", k)
		}
	}

	t := &experiments.Table{
		ID:    "Txn",
		Title: "cross-shard transactions: sequenced 2PC at 1/2/4 participant shards vs same-width single-shard batches",
		PaperNote: fmt.Sprintf("%d nodes, %d shards, %d clients on disjoint keys (%d conflict retries)",
			nodes, shards, clients, res.Conflicts),
		Columns: []string{"commit", "shards", "writes", "ops/s", "mean", "p99", "vs batch"},
	}
	for _, tc := range res.Cases {
		t.Rows = append(t.Rows, []string{
			tc.Name,
			fmt.Sprintf("%d", tc.Participants),
			fmt.Sprintf("%d", tc.Writes),
			fmt.Sprintf("%.0f", tc.OpsPerSec),
			fmt.Sprintf("%.2fms", tc.MeanMs),
			fmt.Sprintf("%.2fms", tc.P99Ms),
			fmt.Sprintf("%.2fx", tc.VsBatch),
		})
	}
	return t, res, nil
}
