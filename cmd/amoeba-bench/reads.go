package main

import (
	"context"
	"fmt"
	"time"

	"amoeba/internal/experiments"
	"amoeba/kv"
)

// The reads experiment measures what read leases buy: per-shard throughput
// of a 95/5 read-heavy mix over the three read paths —
//
//	sequenced  every Get runs a read marker through the total order
//	leased     Gets served from the local replica under a valid lease
//	stale      opt-in bounded-staleness Gets (Client.StaleGet)
//
// The sequenced baseline runs on a leases-off cluster and the other two on a
// leases-on cluster, so the comparison is honest about the lease tax on the
// mix's writes (acceptance waits for lease holders' stored-acks). The ratios
// are the measurement.

// readShard is one shard's throughput over the three paths.
type readShard struct {
	Shard        int     `json:"shard"`
	SequencedOps float64 `json:"sequenced_ops_per_sec"`
	LeasedOps    float64 `json:"leased_ops_per_sec"`
	StaleOps     float64 `json:"stale_ops_per_sec"`
	LeasedX      float64 `json:"leased_speedup"`
	StaleX       float64 `json:"stale_speedup"`
}

type readsResult struct {
	Mix        string      `json:"mix"`
	Nodes      int         `json:"nodes"`
	Shards     []readShard `json:"shards"`
	MinLeasedX float64     `json:"min_leased_speedup"`
	LeaseReads uint64      `json:"lease_reads_served"`
	StaleReads uint64      `json:"stale_reads_served"`
}

const (
	readsNodes        = 3
	readsShards       = 4
	readsMixDur       = 250 * time.Millisecond
	readsKeysPerShard = 16
)

// readsMix drives the 95/5 mix against one shard's keys for readsMixDur and
// reports ops/sec: every 20th operation is a Put, the rest are reads through
// the supplied path.
func readsMix(ctx context.Context, cl *kv.Client, keys []string, read func(key string) error) (float64, error) {
	val := []byte("mix-value")
	op := func(_ context.Context, _, i int) error {
		k := keys[i%len(keys)]
		if i%20 == 19 {
			return cl.Put(ctx, k, val)
		}
		return read(k)
	}
	for i := 0; i < 40; i++ { // warm routes, locates, lease counters
		if err := op(ctx, 0, i); err != nil {
			return 0, err
		}
	}
	stop, cancel := context.WithTimeout(ctx, readsMixDur)
	defer cancel()
	l := drive(ctx, stop, 1, op).wait()
	return l.opsPerSec(), l.err
}

// readsCluster boots one fully-replicated cluster for the experiment and
// returns it with a bound client on node 0 and per-shard seeded key sets.
func readsCluster(ctx context.Context, name string, leases bool) (*cluster, *kv.Client, [][]string, error) {
	c, err := newCluster(ctx, name, readsNodes, kv.Options{Shards: readsShards, Leases: leases})
	if err != nil {
		return nil, nil, nil, err
	}
	cl := c.stores[0].NewClient()
	keys := make([][]string, readsShards)
	for i := 0; len(keys[readsShards-1]) < readsKeysPerShard; i++ {
		k := fmt.Sprintf("reads-%d", i)
		if s := c.stores[0].ShardFor(k); len(keys[s]) < readsKeysPerShard {
			keys[s] = append(keys[s], k)
		}
	}
	for _, ks := range keys {
		for _, k := range ks {
			if err := cl.Put(ctx, k, []byte("seed")); err != nil {
				cl.Close()
				c.close()
				return nil, nil, nil, err
			}
		}
	}
	return c, cl, keys, nil
}

// reads runs a leases-off cluster for the sequenced baseline and a leases-on
// cluster for the leased and stale paths, the same 95/5 mix per shard on
// each. It fails if any shard's leased path beats the sequenced baseline by
// less than 5x, or if the leased/stale paths did not actually serve from
// leases.
func reads(ctx context.Context) (*experiments.Table, any, error) {
	seq, seqCl, seqKeys, err := readsCluster(ctx, "reads-seq", false)
	if err != nil {
		return nil, nil, fmt.Errorf("sequenced cluster: %w", err)
	}
	defer seq.close()
	defer seqCl.Close()
	leased, leaseCl, leaseKeys, err := readsCluster(ctx, "reads-lease", true)
	if err != nil {
		return nil, nil, fmt.Errorf("leased cluster: %w", err)
	}
	defer leased.close()
	defer leaseCl.Close()
	node0 := leased.stores[0]

	// Leases arm on sync ticks: wait until a Get on every shard is served
	// from one.
	deadline := time.Now().Add(15 * time.Second)
	for shard := 0; shard < readsShards; shard++ {
		for {
			before, _, _, _ := node0.LeaseStats()
			if _, _, err := leaseCl.Get(ctx, leaseKeys[shard][0]); err != nil {
				return nil, nil, err
			}
			if after, _, _, _ := node0.LeaseStats(); after > before {
				break
			}
			if time.Now().After(deadline) {
				return nil, nil, fmt.Errorf("shard %d: lease never established", shard)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	plainGet := func(cl *kv.Client) func(string) error {
		return func(k string) error {
			_, ok, err := cl.Get(ctx, k)
			if err == nil && !ok {
				err = fmt.Errorf("key %q vanished", k)
			}
			return err
		}
	}
	staleGet := func(k string) error {
		_, ok, _, err := leaseCl.StaleGet(ctx, k, time.Second)
		if err == nil && !ok {
			err = fmt.Errorf("key %q vanished", k)
		}
		return err
	}

	res := &readsResult{
		Mix:        "95% Get / 5% Put, single client, fully replicated",
		Nodes:      readsNodes,
		MinLeasedX: -1,
	}
	for shard := 0; shard < readsShards; shard++ {
		seqOps, err := readsMix(ctx, seqCl, seqKeys[shard], plainGet(seqCl))
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d sequenced: %w", shard, err)
		}
		leasedOps, err := readsMix(ctx, leaseCl, leaseKeys[shard], plainGet(leaseCl))
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d leased: %w", shard, err)
		}
		staleOps, err := readsMix(ctx, leaseCl, leaseKeys[shard], staleGet)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d stale: %w", shard, err)
		}
		r := readShard{
			Shard: shard, SequencedOps: seqOps, LeasedOps: leasedOps, StaleOps: staleOps,
			LeasedX: leasedOps / seqOps, StaleX: staleOps / seqOps,
		}
		if res.MinLeasedX < 0 || r.LeasedX < res.MinLeasedX {
			res.MinLeasedX = r.LeasedX
		}
		res.Shards = append(res.Shards, r)
	}
	res.LeaseReads, _, res.StaleReads, _ = node0.LeaseStats()
	if res.LeaseReads == 0 {
		return nil, nil, fmt.Errorf("leased path never served from a lease")
	}
	if res.StaleReads == 0 {
		return nil, nil, fmt.Errorf("stale path never served a bounded-staleness read")
	}
	if res.MinLeasedX < 5 {
		return nil, nil, fmt.Errorf("leased speedup %.1fx below the 5x bar", res.MinLeasedX)
	}

	t := &experiments.Table{
		ID:    "Reads",
		Title: fmt.Sprintf("read paths under a 95/5 mix (%d nodes, fully replicated, live in-memory fabric)", readsNodes),
		PaperNote: fmt.Sprintf("sequencer leases piggybacked on sync ticks let replicas answer reads locally; %d lease reads, %d stale reads served",
			res.LeaseReads, res.StaleReads),
		Columns: []string{"shard", "sequenced ops/s", "leased ops/s", "stale ops/s", "leased vs seq", "stale vs seq"},
	}
	for _, r := range res.Shards {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Shard),
			fmt.Sprintf("%.0f", r.SequencedOps),
			fmt.Sprintf("%.0f", r.LeasedOps),
			fmt.Sprintf("%.0f", r.StaleOps),
			fmt.Sprintf("%.1fx", r.LeasedX),
			fmt.Sprintf("%.1fx", r.StaleX),
		})
	}
	return t, res, nil
}
