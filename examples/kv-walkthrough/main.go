// kv walkthrough: the sharded, replicated, durable store end to end, on
// three nodes with four write-ahead-logged shard groups and a kv.Service per
// node. Writes route to shards from any node; a cross-shard Txn commits and
// MGet reads it back; a Dial'd client reaches every key through one node; a
// kv.Join replacement for a crashed node serves every key; and after every
// node is killed and restarted from the logs, a CAS retried under its
// original command id is answered, not re-executed. Sequenced audits check
// that the replicas converged. Any failed check exits non-zero.
//
//	go run ./examples/kv-walkthrough
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"amoeba"
	"amoeba/kv"
	"amoeba/obs"
)

const (
	name   = "walkthrough"
	nodes  = 3
	shards = 4
	keys   = 60
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("walkthrough passed")
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir, err := os.MkdirTemp("", "kv-walkthrough-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	hub := obs.NewHub(obs.Options{Node: name})
	opts := kv.Options{Shards: shards, DataDir: dir,
		Group: amoeba.GroupOptions{Resilience: 1, AutoReset: true, MinSurvivors: 1, Obs: hub}}
	c, err := boot(ctx, opts, 0)
	if err != nil {
		return err
	}
	defer func() { c.kill() }()
	fmt.Printf("%d nodes × %d durable shards, a kv.Service on each node\n", nodes, shards)

	// 1. The ring routes each key to its shard, whichever node writes it.
	clients := make([]*kv.Client, nodes)
	for i, s := range c.stores {
		clients[i] = s.NewClient()
		defer clients[i].Close()
	}
	want := make(map[string]string)
	perShard := make([]int, shards)
	for i := 0; i < keys; i++ {
		k := key(i)
		if err := clients[i%nodes].Put(ctx, k, []byte("v1-"+k)); err != nil {
			return fmt.Errorf("put %s: %w", k, err)
		}
		want[k] = "v1-" + k
		perShard[c.stores[0].ShardFor(k)]++
	}
	fmt.Printf("1. wrote %d keys through nodes 0-2; keys per shard %v\n", keys, perShard)
	if v, ok, err := clients[2].Get(ctx, key(1)); err != nil || !ok || string(v) != want[key(1)] {
		return fmt.Errorf("node 2 read %s = %q %v %v, want node 1's write", key(1), v, ok, err)
	}
	fmt.Printf("   node 2's sequenced read of %s sees node 1's write\n", key(1))

	// 2. Swap two keys on different shards atomically. Retried, the swap's
	// condition no longer holds, so it aborts.
	a, b := key(0), key(1)
	for i := 2; c.stores[0].ShardFor(a) == c.stores[0].ShardFor(b); i++ {
		b = key(i)
	}
	swap := kv.TxnOp{
		Conds:  []kv.TxnCond{{Key: a, ExpectPresent: true, Expect: []byte(want[a])}},
		Writes: []kv.TxnWrite{{Key: a, Val: []byte(want[b])}, {Key: b, Val: []byte(want[a])}},
	}
	if res, err := clients[0].Txn(ctx, swap); err != nil || !res.Committed {
		return fmt.Errorf("swap txn = %+v, %v", res, err)
	}
	want[a], want[b] = want[b], want[a]
	if got, err := clients[1].MGet(ctx, a, b); err != nil || string(got[a]) != want[a] || string(got[b]) != want[b] {
		return fmt.Errorf("MGet after the swap = %q, %v", got, err)
	}
	if res, err := clients[0].Txn(ctx, swap); err != nil || res.Committed || !res.CondFailed {
		return fmt.Errorf("retried swap = %+v, %v, want a failed condition", res, err)
	}
	fmt.Printf("2. a txn swapped %s and %s across shards %d and %d; node 1's MGet sees both; its retry aborted\n",
		a, b, c.stores[0].ShardFor(a), c.stores[0].ShardFor(b))

	// 3. A machine hosting nothing reaches every key through node 0.
	ck, err := c.net.NewKernel("client")
	if err != nil {
		return err
	}
	dialled, err := kv.Dial(ck, name, kv.DialOptions{Node: 0})
	if err != nil {
		return err
	}
	defer dialled.Close()
	if err := snapshot(ctx, dialled, want); err != nil {
		return fmt.Errorf("dialled client: %w", err)
	}
	fmt.Printf("3. a client dialled to node 0 read all %d keys; node 0's Service served %d request(s)\n",
		len(want), c.services[0].Stats().Served)

	// 4. Crash node 2, keep writing while its groups recover, then admit a
	// replacement into its slot.
	c.crash(2)
	for i := 0; i < keys; i++ {
		k := key(i)
		if err := putRetry(ctx, clients[i%2], k, "v2-"+k); err != nil {
			return fmt.Errorf("put %s after the crash: %w", k, err)
		}
		want[k] = "v2-" + k
	}
	fmt.Printf("4. crashed node 2 and overwrote %d keys through nodes 0 and 1\n", keys)
	rk, err := c.net.NewKernel("node-2-replacement")
	if err != nil {
		return err
	}
	ro := opts
	ro.Nodes, ro.NodeIndex = nodes, 2
	rep, err := kv.Join(ctx, rk, name, ro)
	if err != nil {
		return fmt.Errorf("join: %w", err)
	}
	c.stores[2] = rep
	local := rep.NewClient()
	defer local.Close()
	if err := check(want, local.LocalGet); err != nil {
		return fmt.Errorf("replacement: %w", err)
	}
	fmt.Printf("   the replacement joined by state transfer and serves all %d keys from its own replicas\n", len(want))
	if err := converged(ctx, c.stores, hub); err != nil {
		return err
	}

	// 5. Take a lock under a pinned command id, kill every node at once,
	// restart from the logs, and retry the same command (Do copies it).
	lock := &kv.Request{Op: kv.ReqCAS, Key: "leader-lock", Val: []byte("scheduler-7"), ID: 0xFEED_BEEF}
	if resp, err := clients[0].Do(ctx, lock); err != nil || !resp.OK {
		return fmt.Errorf("taking the lock: %+v, %v", resp, err)
	}
	want["leader-lock"] = "scheduler-7"
	fmt.Printf("5. took leader-lock with command id %#x, then killed all %d nodes\n", lock.ID, nodes)
	c.kill()
	start := time.Now()
	if c, err = boot(ctx, opts, 1); err != nil {
		return err
	}
	cl := c.stores[2].NewClient()
	defer cl.Close()
	if err := snapshot(ctx, cl, want); err != nil {
		return fmt.Errorf("after the restart: %w", err)
	}
	fmt.Printf("   cold restart from the logs in %v; an MGet snapshot holds all %d keys\n",
		time.Since(start).Round(time.Millisecond), len(want))
	// The lock exists now, so a re-executed create would fail.
	if resp, err := cl.Do(ctx, lock); err != nil || !resp.OK {
		return fmt.Errorf("retried lock CAS = %+v, %v: the retry was re-executed", resp, err)
	}
	if won, err := cl.CAS(ctx, "leader-lock", nil, []byte("usurper")); err != nil || won {
		return fmt.Errorf("rival CAS = %v, %v: the restart lost the lock", won, err)
	}
	fmt.Println("   the retried CAS was answered from the recovered dedup window; a rival's CAS lost")
	return converged(ctx, c.stores, hub)
}

func key(i int) string { return fmt.Sprintf("user-%04d", i) }

// check compares get's answer for every key with want.
func check(want map[string]string, get func(string) ([]byte, bool)) error {
	for k, v := range want {
		if got, ok := get(k); !ok || string(got) != v {
			return fmt.Errorf("%s = %q (found %v), want %q", k, got, ok, v)
		}
	}
	return nil
}

// snapshot checks one MGet of every key in want.
func snapshot(ctx context.Context, cl *kv.Client, want map[string]string) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	got, err := cl.MGet(ctx, keys...)
	if err != nil {
		return err
	}
	return check(want, func(k string) ([]byte, bool) { v, ok := got[k]; return v, ok })
}

// cluster is one generation of the store: its network, and a store and a
// kv.Service on each node.
type cluster struct {
	net      *amoeba.MemoryNetwork
	stores   []*kv.Store
	services []*kv.Service
}

// boot starts the cluster, or restarts it from the logs in opts.DataDir.
func boot(ctx context.Context, opts kv.Options, gen int) (*cluster, error) {
	c := &cluster{net: amoeba.NewMemoryNetwork(), services: make([]*kv.Service, nodes)}
	kernels := make([]*amoeba.Kernel, nodes)
	var err error
	for i := range kernels {
		if kernels[i], err = c.net.NewKernel(fmt.Sprintf("gen%d-node-%d", gen, i)); err != nil {
			c.net.Close()
			return nil, err
		}
	}
	if c.stores, err = kv.Bootstrap(ctx, kernels, name, opts); err != nil {
		c.net.Close()
		return nil, fmt.Errorf("bootstrap (generation %d): %w", gen, err)
	}
	for i, s := range c.stores {
		if c.services[i], err = kv.NewService(s); err != nil {
			c.kill()
			return nil, err
		}
	}
	return c, nil
}

// crash stops node i with no goodbye; its logs survive.
func (c *cluster) crash(i int) {
	if c.services[i] != nil {
		c.services[i].Close()
	}
	c.stores[i].Close()
}

// kill crashes every node at once: the power cut replication cannot mask.
// A nil cluster (a restart that failed) has nothing to kill.
func (c *cluster) kill() {
	if c == nil {
		return
	}
	for i := range c.stores {
		c.crash(i)
	}
	c.net.Close()
}

// putRetry retries a Put across a recovery window, in which a shard
// rejects or delays writes briefly.
func putRetry(ctx context.Context, cl *kv.Client, k, v string) error {
	for {
		opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := cl.Put(opCtx, k, []byte(v))
		cancel()
		if err == nil || ctx.Err() != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// converged has every node audit every shard: each replica digests its
// state where an audit sits in the shard's total order, and the hub's
// auditor compares the digests.
func converged(ctx context.Context, stores []*kv.Store, hub *obs.Hub) error {
	// AuditNow returns once the local replica has applied, and so reported,
	// its own audit. After the last node's returns, every replica has
	// reported the first node's audit, which precedes the others.
	for _, s := range stores {
		if err := s.AuditNow(ctx); err != nil {
			return err
		}
	}
	aud := hub.Health()
	if divs := aud.Divergences(); len(divs) > 0 {
		return fmt.Errorf("replicas diverged: %v", divs[0])
	}
	if v := aud.Rollup("kv/" + name + "/"); v != obs.VerdictOK {
		return fmt.Errorf("audit verdict %s, want %s\n%s", v, obs.VerdictOK, aud.Format("kv/"+name+"/"))
	}
	fmt.Printf("   audit: all %d replicas of each of the %d shards hold the same state\n", len(stores), shards)
	return nil
}
