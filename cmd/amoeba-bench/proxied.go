package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"amoeba/internal/experiments"
	"amoeba/kv"
)

// The proxied experiment measures what the service/client split costs: the
// latency of a sequenced Get over each access path —
//
//	local      the shard is hosted on the client's node (in-process)
//	direct     one RPC hop to the shard's well-known address
//	forwarded  an entry node answers the misroute with a ForwardRequest
//
// The ratios — what one RPC hop and one forward hop add over the in-process
// path — are the measurement.

// accessPath is one access path's latency measurement.
type accessPath struct {
	Path       string  `json:"path"`
	MedianUs   float64 `json:"median_us"`
	P90Us      float64 `json:"p90_us"`
	VsLocal    float64 `json:"vs_local"`
	Forwarded  uint64  `json:"forwarded_requests,omitempty"`
	SampleSize int     `json:"samples"`
}

// accessPathSamples is the per-path sample count.
const accessPathSamples = 300

// proxied builds a bounded-replication cluster with one Service per node and
// times sequenced Gets over the three access paths.
func proxied(ctx context.Context) (*experiments.Table, any, error) {
	c, err := newCluster(ctx, "prox", 4, kv.Options{Shards: 4, Replication: 1})
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	svcs := make([]*kv.Service, len(c.stores))
	for i, s := range c.stores {
		if svcs[i], err = kv.NewService(s); err != nil {
			return nil, nil, err
		}
		defer svcs[i].Close()
	}

	// One key hosted on node 0 (the local path) and one hosted elsewhere
	// (the remote paths). Replication 1 puts shard i on node i exactly.
	keyOn := func(shard int) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("lat-%d-%d", shard, i)
			if c.stores[0].ShardFor(k) == shard {
				return k
			}
		}
	}
	localKey, remoteKey := keyOn(0), keyOn(2)

	// Clients: node-bound (local fast path + direct shard RPC), and a
	// ring-less Dial'd client whose every remote request enters node 0 and
	// is forwarded.
	bound := c.stores[0].NewClient()
	defer bound.Close()
	ext, err := c.net.NewKernel("prox-client")
	if err != nil {
		return nil, nil, err
	}
	dialed, err := kv.Dial(ext, "prox", kv.DialOptions{Node: 0})
	if err != nil {
		return nil, nil, err
	}
	defer dialed.Close()

	for _, k := range []string{localKey, remoteKey} {
		if err := bound.Put(ctx, k, []byte("x")); err != nil {
			return nil, nil, err
		}
	}
	get := func(cl *kv.Client, key string) func() error {
		return func() error {
			_, ok, err := cl.Get(ctx, key)
			if err == nil && !ok {
				err = fmt.Errorf("key %q vanished", key)
			}
			return err
		}
	}
	// sample times accessPathSamples sequential Gets after a warm-up that
	// fills locates, routes and caches.
	sample := func(get func() error) ([]float64, error) {
		for i := 0; i < accessPathSamples/10; i++ {
			if err := get(); err != nil {
				return nil, err
			}
		}
		lats := make([]float64, 0, accessPathSamples)
		for i := 0; i < accessPathSamples; i++ {
			start := time.Now()
			if err := get(); err != nil {
				return nil, err
			}
			lats = append(lats, float64(time.Since(start).Microseconds()))
		}
		sort.Float64s(lats)
		return lats, nil
	}

	paths := []struct {
		name string
		fn   func() error
	}{
		{"local", get(bound, localKey)},
		{"direct", get(bound, remoteKey)},
		{"forwarded", get(dialed, remoteKey)},
	}
	results := make([]accessPath, 0, len(paths))
	var localMedian float64
	for _, p := range paths {
		lats, err := sample(p.fn)
		if err != nil {
			return nil, nil, fmt.Errorf("%s path: %w", p.name, err)
		}
		r := accessPath{
			Path:       p.name,
			MedianUs:   lats[len(lats)/2],
			P90Us:      lats[len(lats)*9/10],
			SampleSize: accessPathSamples,
		}
		if p.name == "local" {
			localMedian = r.MedianUs
		}
		if localMedian > 0 {
			r.VsLocal = r.MedianUs / localMedian
		}
		results = append(results, r)
	}
	// The forwarded path must actually have forwarded.
	st := svcs[0].Stats()
	if st.Forwarded == 0 {
		return nil, nil, fmt.Errorf("forwarded path produced no forwards (stats %+v)", st)
	}
	results[len(results)-1].Forwarded = st.Forwarded

	t := &experiments.Table{
		ID:        "Proxied KV access",
		Title:     "sequenced Get latency by access path (4 nodes, 4 shards, replication 1, live in-memory fabric)",
		PaperNote: "Table 1's ForwardRequest in use: a misrouted request is handed to an owning node; the reply returns from wherever it lands",
		Columns:   []string{"path", "median (µs)", "p90 (µs)", "vs local", "forwards"},
	}
	for _, r := range results {
		fw := ""
		if r.Forwarded > 0 {
			fw = fmt.Sprintf("%d", r.Forwarded)
		}
		t.Rows = append(t.Rows, []string{
			r.Path,
			fmt.Sprintf("%.0f", r.MedianUs),
			fmt.Sprintf("%.0f", r.P90Us),
			fmt.Sprintf("%.2fx", r.VsLocal),
			fw,
		})
	}
	return t, results, nil
}
