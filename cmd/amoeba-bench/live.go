package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/internal/experiments"
	"amoeba/kv"
	"amoeba/obs"
)

// A liveExp is an experiment on the live in-memory fabric (and, for durable,
// a real disk) instead of the calibrated simulator: the kv layer sits above
// the simulator's reach. It runs in real time on the host, so absolute
// numbers vary by machine; the ratios are the measurement. measure returns
// the rendered table and the result -json writes, wrapped in the envelope
// {experiment, unit, note} followed by the result under key — or by the
// result's own fields when key is empty.
type liveExp struct {
	unit, note, key string
	measure         func(context.Context) (*experiments.Table, any, error)
}

// liveExps are the live-fabric experiments; each -json document is
// committed at the repository root as BENCH_<id>.json.
var liveExps = map[string]liveExp{
	"proxied": {
		unit:    "sequenced Get latency, µs, live in-memory fabric (host-dependent; compare ratios)",
		note:    "local = in-process fast path; direct = one RPC hop to the shard address; forwarded = entry node + ForwardRequest hop",
		key:     "results",
		measure: proxied,
	},
	"durable": {
		unit:    "ordered cmds/sec (3-member replicated SM, 64 B cmds, live in-memory fabric) and recovery wall-ms (128 B entries, real disk)",
		key:     "results",
		measure: durable,
	},
	"reshard": {
		unit:    "aggregate client ops/s, live in-memory fabric (host-dependent; compare the during/before ratio)",
		note:    "live 4→8 split under continuous load; moved_ratio is the consistent-hash movement (≈1/2 for doubling) vs naive_ratio for an independent rehash (≈7/8)",
		key:     "result",
		measure: reshard,
	},
	"observed": {
		unit:    "ops/s (throughput), ns (stage quantiles, power-of-two bucket bounds)",
		note:    "instrumentation cost: same sharded workload with the obs hub detached (nil no-op sinks) vs attached (histograms+tracer+flight live); mirrored ABBA run schedule, aggregate throughput per mode",
		measure: observed,
	},
	"txn": {
		unit:    "committed ops/s and per-commit latency, live in-memory fabric (host-dependent; compare each vs_batch ratio)",
		note:    "sequenced 2PC at 1/2/4 participant shards vs a single-shard BatchPut of the same write count; disjoint keys, so conflicts must be 0",
		key:     "result",
		measure: txn,
	},
	"audit": {
		unit:    "ops/s (throughput)",
		note:    "self-audit cost: same sharded workload with the periodic sequenced state audit off vs on (digest scan + sequenced audit command + cross-replica comparison); obs hub attached in both modes, mirrored ABBA run schedule",
		measure: audit,
	},
	"reads": {
		unit:    "mixed ops/sec per shard, live in-memory fabric (host-dependent; compare ratios)",
		note:    "sequenced = read marker on the total order (leases off); leased = local replica reads under a sequencer lease; stale = Client.StaleGet with a 1s bound",
		key:     "report",
		measure: reads,
	},
}

// run measures once and renders both the table and the JSON document.
func (e liveExp) run(id string) (*experiments.Table, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	table, res, err := e.measure(ctx)
	if err != nil {
		return nil, nil, err
	}
	buf, err := e.envelope(id, res)
	return table, buf, err
}

// envelope renders res as the experiment's BENCH_<id>.json document.
func (e liveExp) envelope(id string, res any) ([]byte, error) {
	head, err := json.Marshal(struct {
		Experiment string `json:"experiment"`
		Unit       string `json:"unit"`
		Note       string `json:"note,omitempty"`
	}{id, e.unit, e.note})
	if err != nil {
		return nil, err
	}
	if e.key != "" {
		res = map[string]any{e.key: res}
	}
	body, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	// Splice the two objects into one: the header's fields, then the body's.
	joined := append(append(head[:len(head)-1], ','), body[1:]...)
	var out bytes.Buffer
	err = json.Indent(&out, joined, "", "  ")
	return out.Bytes(), err
}

// cluster is one in-process kv deployment on its own memory network.
type cluster struct {
	net    *amoeba.MemoryNetwork
	stores []*kv.Store
}

// newCluster boots a store named name on nodes fresh kernels.
func newCluster(ctx context.Context, name string, nodes int, opts kv.Options) (*cluster, error) {
	c := &cluster{net: amoeba.NewMemoryNetwork()}
	kernels := make([]*amoeba.Kernel, nodes)
	for i := range kernels {
		k, err := c.net.NewKernel(fmt.Sprintf("%s-node-%d", name, i))
		if err != nil {
			c.net.Close()
			return nil, err
		}
		kernels[i] = k
	}
	stores, err := kv.Bootstrap(ctx, kernels, name, opts)
	if err != nil {
		c.net.Close()
		return nil, err
	}
	c.stores = stores
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.stores {
		s.Close()
	}
	c.net.Close()
}

// load is a closed-loop load run: the one driver every live experiment that
// applies load shares.
type load struct {
	ops, errs atomic.Uint64 // completed and failed ops, readable mid-run
	elapsed   time.Duration // set by wait

	wg    sync.WaitGroup
	start time.Time
	mu    sync.Mutex
	lats  []time.Duration // latency of every completed op
	err   error           // first failure
}

// drive starts workers closed-loop goroutines: worker w issues
// op(ctx, w, i) for i = 0, 1, … back to back until stop is done. A failure
// after ctx itself is done is cancellation, not a workload error. Passing
// stop as ctx cuts the op in flight short at the end; passing a longer-lived
// ctx lets it finish (a txn cancelled mid-2PC would orphan its prepare).
func drive(ctx, stop context.Context, workers int, op func(ctx context.Context, w, i int) error) *load {
	l := &load{start: time.Now()}
	for w := 0; w < workers; w++ {
		w := w
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			var lats []time.Duration
			for i := 0; stop.Err() == nil; i++ {
				t0 := time.Now()
				err := op(ctx, w, i)
				switch {
				case err == nil:
					lats = append(lats, time.Since(t0))
					l.ops.Add(1)
				case ctx.Err() != nil:
				default:
					l.errs.Add(1)
					l.mu.Lock()
					if l.err == nil {
						l.err = fmt.Errorf("worker %d: %w", w, err)
					}
					l.mu.Unlock()
				}
			}
			l.mu.Lock()
			l.lats = append(l.lats, lats...)
			l.mu.Unlock()
		}()
	}
	return l
}

// wait blocks until every worker has stopped and records the elapsed time.
func (l *load) wait() *load {
	l.wg.Wait()
	l.elapsed = time.Since(l.start)
	return l
}

// opsPerSec is the run's aggregate throughput.
func (l *load) opsPerSec() float64 { return float64(l.ops.Load()) / l.elapsed.Seconds() }

// The sharded workload behind the observed and audit experiments: 16
// clients spread over 4 fully-replicated nodes hammer 4 shards with 64 B
// Puts and 20% sequenced Gets on 1024 keys.
const (
	loadNodes    = 4
	loadShards   = 4
	loadClients  = 16
	loadKeys     = 1024
	loadValue    = 64
	loadReadFrac = 0.2
	loadSeed     = 1
)

// runLoad boots the sharded workload's cluster (instrumented by hub when
// non-nil, self-auditing every auditEvery when non-zero) and drives it for d.
// Every completed op's latency lands in hub's amoeba_kv_load_op_ns.
func runLoad(ctx context.Context, hub *obs.Hub, auditEvery, d time.Duration) (*load, error) {
	c, err := newCluster(ctx, "loadgen", loadNodes, kv.Options{
		Shards:     loadShards,
		AuditEvery: auditEvery,
		Group:      amoeba.GroupOptions{Obs: hub},
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	clients := make([]*kv.Client, loadClients)
	rngs := make([]*rand.Rand, loadClients)
	for i := range clients {
		clients[i] = c.stores[i%loadNodes].NewClient()
		defer clients[i].Close()
		rngs[i] = rand.New(rand.NewSource(loadSeed + int64(i)))
	}
	value := make([]byte, loadValue)
	stop, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	l := drive(stop, stop, loadClients, func(ctx context.Context, w, _ int) error {
		rng := rngs[w]
		key := fmt.Sprintf("key-%06d", rng.Intn(loadKeys))
		if rng.Float64() < loadReadFrac {
			_, _, err := clients[w].Get(ctx, key)
			return err
		}
		return clients[w].Put(ctx, key, value)
	}).wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h := hub.Histogram("amoeba_kv_load_op_ns")
	for _, lat := range l.lats {
		h.Observe(lat)
	}
	return l, nil
}

// abba runs trial once per letter of schedule — D for the baseline mode, E
// for the mode under test — and returns each mode's aggregate throughput
// (total ops over total measured time). The host's throughput drifts slowly
// (warm-up, background load) by more than the effects measured, so the
// schedules are laid out in mirrored ABBA blocks — DEED then EDDE — which
// cancel any linear drift exactly: both modes occupy the same average
// position in time.
func abba(schedule string, trial func(enabled bool) (*load, error)) (disabled, enabled float64, err error) {
	var ops [2]uint64
	var d [2]time.Duration
	for _, mode := range schedule {
		e := 0
		if mode == 'E' {
			e = 1
		}
		l, err := trial(e == 1)
		if err != nil {
			return 0, 0, err
		}
		ops[e] += l.ops.Load()
		d[e] += l.elapsed
	}
	return float64(ops[0]) / d[0].Seconds(), float64(ops[1]) / d[1].Seconds(), nil
}

// counter reads one counter family from hub's registry (0 when absent).
func counter(hub *obs.Hub, name string) uint64 {
	for _, s := range hub.Registry().Counters() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}
