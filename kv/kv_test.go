package kv

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"amoeba"
	"amoeba/obs"
	"amoeba/shared"
)

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// newCluster bootstraps a store over fresh kernels and arranges cleanup.
func newCluster(t *testing.T, ctx context.Context, net *amoeba.MemoryNetwork, name string, nodes int, opts Options) []*Store {
	t.Helper()
	kernels := make([]*amoeba.Kernel, nodes)
	for i := range kernels {
		k, err := net.NewKernel(fmt.Sprintf("%s-node-%d", name, i))
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
		kernels[i] = k
	}
	stores, err := Bootstrap(ctx, kernels, name, opts)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return stores
}

func TestBasicOps(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "basic", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()

	// Put / sequenced Get.
	if err := cl.Put(ctx, "alpha", []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := cl.Get(ctx, "alpha")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get alpha = %q %v %v", v, ok, err)
	}
	// Read-your-writes holds even on the local fast path, because Put
	// waits for the local apply.
	if v, ok := cl.LocalGet("alpha"); !ok || string(v) != "1" {
		t.Fatalf("LocalGet alpha = %q %v", v, ok)
	}
	if _, ok, _ := cl.Get(ctx, "missing"); ok {
		t.Fatal("Get of missing key reported found")
	}
	if _, ok := cl.LocalGet("missing"); ok {
		t.Fatal("LocalGet of missing key reported found")
	}

	// Delete reports prior existence.
	if existed, err := cl.Delete(ctx, "alpha"); err != nil || !existed {
		t.Fatalf("Delete alpha = %v %v", existed, err)
	}
	if existed, err := cl.Delete(ctx, "alpha"); err != nil || existed {
		t.Fatalf("second Delete alpha = %v %v", existed, err)
	}

	// CAS: create-if-absent, replace-if-equal, fail-if-different.
	if ok, err := cl.CAS(ctx, "cas", nil, []byte("first")); err != nil || !ok {
		t.Fatalf("CAS create = %v %v", ok, err)
	}
	if ok, err := cl.CAS(ctx, "cas", nil, []byte("again")); err != nil || ok {
		t.Fatalf("CAS create over existing = %v %v", ok, err)
	}
	if ok, err := cl.CAS(ctx, "cas", []byte("wrong"), []byte("x")); err != nil || ok {
		t.Fatalf("CAS wrong expect = %v %v", ok, err)
	}
	if ok, err := cl.CAS(ctx, "cas", []byte("first"), []byte("second")); err != nil || !ok {
		t.Fatalf("CAS replace = %v %v", ok, err)
	}
	if v, _, _ := cl.Get(ctx, "cas"); string(v) != "second" {
		t.Fatalf("cas = %q after swap", v)
	}
}

// TestBatchPutCoalescesAcrossShards bulk-loads through the write-coalescing
// path: pairs scatter to their owning shards, each shard's burst rides the
// group layer's batch requests, and every write must be readable afterwards
// — from another node — with the shard sequencers reporting actual
// multi-message batches.
func TestBatchPutCoalescesAcrossShards(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "batchput", 2, Options{Shards: 2})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	// Issue the batch from the node that does NOT sequence every shard, so
	// at least one shard's burst crosses the wire as batch requests.
	cl := stores[1].NewClient()
	const n = 64
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Key: fmt.Sprintf("bulk-%03d", i), Val: []byte(fmt.Sprintf("v%d", i))}
	}
	if err := cl.BatchPut(ctx, pairs); err != nil {
		t.Fatalf("BatchPut: %v", err)
	}
	// Read-your-writes locally on the issuing node...
	for _, p := range pairs {
		if v, ok := cl.LocalGet(p.Key); !ok || !bytes.Equal(v, p.Val) {
			t.Fatalf("LocalGet %s = %q %v after BatchPut", p.Key, v, ok)
		}
	}
	// ...and sequenced reads from the other node agree.
	other := stores[0].NewClient()
	got, err := other.MGet(ctx, "bulk-000", "bulk-031", "bulk-063")
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	for k, want := range map[string]string{"bulk-000": "v0", "bulk-031": "v31", "bulk-063": "v63"} {
		if string(got[k]) != want {
			t.Fatalf("MGet %s = %q, want %q", k, got[k], want)
		}
	}
	// The bursts must actually have coalesced somewhere.
	var batches uint64
	for _, s := range stores {
		for i := 0; i < s.Shards(); i++ {
			if r := s.Replica(i); r != nil {
				batches += r.Stats().OrderedBatches
			}
		}
	}
	if batches == 0 {
		t.Fatal("BatchPut produced no batch ordering requests")
	}
}

// TestBatchPutIsExactlyOnceUnderRetry checks the id-dedup contract the
// BatchPut retry loop depends on: re-submitting an already-committed batch
// must not re-execute it.
func TestBatchPutIsExactlyOnceUnderRetry(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "batchonce", 1, Options{Shards: 1})
	defer stores[0].Close()

	cl := stores[0].NewClient()
	ids := []uint64{cl.nextID(), cl.nextID()}
	cmds := [][]byte{
		encodeCommand(&Request{Op: ReqPut, ID: ids[0], Key: "k", Val: []byte("first")}),
		encodeCommand(&Request{Op: ReqPut, ID: ids[1], Key: "k", Val: []byte("second")}),
	}
	if _, err := stores[0].do(ctx, 0, ids, cmds...); err != nil {
		t.Fatalf("do: %v", err)
	}
	if err := cl.Put(ctx, "k", []byte("third")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Replaying the original batch (a retry after a presumed-lost reply)
	// must be a no-op: the commands' ids already have results.
	if _, err := stores[0].do(ctx, 0, ids, cmds...); err != nil {
		t.Fatalf("do replay: %v", err)
	}
	if v, ok := cl.LocalGet("k"); !ok || string(v) != "third" {
		t.Fatalf("k = %q %v: replayed batch re-executed", v, ok)
	}
}

func TestOperationsSpreadAcrossShards(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "spread", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	hit := make(map[int]bool)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("spread-%d", i)
		hit[stores[0].ShardFor(key)] = true
		if err := cl.Put(ctx, key, []byte{byte(i)}); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}
	if len(hit) != 4 {
		t.Fatalf("64 keys hit only %d of 4 shards", len(hit))
	}
	// Each shard group really carries only its own keys: per-shard applied
	// watermarks are all well below the total operation count.
	for i := 0; i < stores[0].Shards(); i++ {
		if a := stores[0].Replica(i).Applied(); a >= 64 {
			t.Fatalf("shard %d applied %d commands; sharding not partitioning load", i, a)
		}
	}
}

func TestSequencedReadSeesOtherNodesWrite(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "seqread", 3, Options{Shards: 2})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	writer := stores[0].NewClient()
	reader := stores[2].NewClient()
	for i := 0; i < 20; i++ {
		want := []byte(fmt.Sprintf("v%d", i))
		if err := writer.Put(ctx, "shared-key", want); err != nil {
			t.Fatalf("Put: %v", err)
		}
		// The write completed before this Get began, so a linearizable
		// read through another node MUST observe it.
		got, ok, err := reader.Get(ctx, "shared-key")
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("iteration %d: Get = %q %v %v, want %q", i, got, ok, err, want)
		}
	}
}

func TestMGetScatterGather(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "mget", 2, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[1].NewClient()
	var keys []string
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("mget-%d", i)
		keys = append(keys, k)
		if err := cl.Put(ctx, k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Ask for all written keys plus some absent ones.
	got, err := cl.MGet(ctx, append(keys, "nope-1", "nope-2")...)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	if len(got) != len(keys) {
		t.Fatalf("MGet returned %d keys, want %d", len(got), len(keys))
	}
	for i, k := range keys {
		if string(got[k]) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("MGet[%s] = %q", k, got[k])
		}
	}
	if _, ok := got["nope-1"]; ok {
		t.Fatal("MGet invented a value for an absent key")
	}
}

func TestCASContention(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "cas", 3, Options{Shards: 2})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	// All nodes race to create the same key: the shard's total order must
	// admit exactly one winner.
	const racers = 6
	wins := make(chan int, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		i := i
		cl := stores[i%len(stores)].NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := cl.CAS(ctx, "leader", nil, []byte(fmt.Sprintf("racer-%d", i)))
			if err != nil {
				t.Errorf("CAS racer %d: %v", i, err)
				return
			}
			if ok {
				wins <- i
			}
		}()
	}
	wg.Wait()
	close(wins)
	var winners []int
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("CAS race produced %d winners (%v), want exactly 1", len(winners), winners)
	}
	// Every node agrees on who won.
	want := []byte(fmt.Sprintf("racer-%d", winners[0]))
	for n, s := range stores {
		v, ok, err := s.NewClient().Get(ctx, "leader")
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("node %d: leader = %q %v %v, want %q", n, v, ok, err, want)
		}
	}
}

// shardItems snapshots shard i's item map at node s.
func shardItems(s *Store, i int) map[string]string {
	out := make(map[string]string)
	s.Replica(i).Read(func(sm shared.StateMachine) {
		for k, v := range sm.(*mapSM).items {
			out[k] = string(v)
		}
	})
	return out
}

// waitShardSync blocks until every node has applied shard i through the
// highest watermark any node has seen.
func waitShardSync(t *testing.T, nodes []*Store, i int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var hi uint32
		for _, s := range nodes {
			if a := s.Replica(i).Applied(); a > hi {
				hi = a
			}
		}
		synced := true
		for _, s := range nodes {
			if s.Replica(i).Applied() < hi {
				synced = false
			}
		}
		if synced {
			return
		}
		if time.Now().After(deadline) {
			var states []string
			for n, s := range nodes {
				r := s.Replica(i)
				states = append(states, fmt.Sprintf("node%d applied=%d [%s]", n, r.Applied(), r.Debug()))
			}
			t.Fatalf("shard %d never synced: %v", i, states)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashRejoinUnderLoad is the end-to-end scenario from the issue: a node
// crashes mid-load, the shard groups recover (AutoReset), clients keep
// writing throughout, the crashed node's replacement rejoins via state
// transfer while traffic continues, and afterwards every acknowledged write
// is present on every node and all replicas are byte-identical.
func TestCrashRejoinUnderLoad(t *testing.T) {
	ctx := ctxT(t, 90*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	hub := obs.NewHub(obs.Options{Node: "scenario-test"})
	opts := Options{
		Shards: 4,
		Group: amoeba.GroupOptions{
			Resilience:   1,
			AutoReset:    true,
			MinSurvivors: 2,
			Obs:          hub,
		},
	}
	stores := newCluster(t, ctx, net, "scenario", 3, opts)
	closed := make([]bool, len(stores))
	defer func() {
		for i, s := range stores {
			if !closed[i] {
				s.Close()
			}
		}
	}()

	// Two writers on the surviving nodes hammer disjoint key ranges and
	// record every acknowledged write. A Put that errors (e.g. its shard
	// is mid-recovery) is retried with the same value.
	const writers = 2
	stop := make(chan struct{})
	acked := make([]map[string]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		acked[w] = make(map[string]string)
		cl := stores[w].NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-key-%d", w, n%40)
				val := fmt.Sprintf("w%d-val-%d", w, n)
				for {
					err := cl.Put(ctx, key, []byte(val))
					if err == nil {
						acked[w][key] = val // only the writer reads this until wg.Wait
						break
					}
					if ctx.Err() != nil {
						return
					}
					select {
					case <-stop:
						return
					case <-time.After(20 * time.Millisecond):
					}
				}
			}
		}()
	}

	// Let load build up, then crash node 2 — taking down its replica of
	// every shard AND the sequencer of the shards it was hosting.
	time.Sleep(300 * time.Millisecond)
	t.Log("crashing node 2")
	stores[2].Close()
	closed[2] = true

	// Writers keep going while the groups detect the failure and
	// AutoReset rebuilds each shard with the 2 survivors.
	time.Sleep(1 * time.Second)

	// A replacement node rejoins every shard via atomic state transfer —
	// with the writers still writing.
	t.Log("rejoining replacement node")
	k, err := net.NewKernel("scenario-node-2-reborn")
	if err != nil {
		t.Fatalf("replacement kernel: %v", err)
	}
	// It takes node 2's slot, so the auditor tells its digests from node 0's.
	rejoin := opts
	rejoin.NodeIndex = 2
	joinCtx, cancelJoin := context.WithTimeout(ctx, 30*time.Second)
	replacement, err := Join(joinCtx, k, "scenario", rejoin)
	cancelJoin()
	if err != nil {
		t.Fatalf("replacement never joined: %v", err)
	}
	defer replacement.Close()

	// Keep writing with the new node in place, then stop.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	nodes := []*Store{stores[0], stores[1], replacement}

	// Every shard must settle on exactly the 3 live nodes. Expelling the
	// crashed node from a shard that never needed recovery takes history
	// pressure (the dead member pins the sequencer's floor until a probe
	// declares it dead), so keep a trickle of writes flowing while the
	// memberships converge — as any production store would.
	settle := stores[0].NewClient()
	settleDeadline := time.Now().Add(30 * time.Second)
	for {
		allThree := true
		for i := 0; i < opts.Shards; i++ {
			if replacement.Members(i) != 3 || stores[0].Members(i) != 3 {
				allThree = false
			}
		}
		if allThree {
			break
		}
		if time.Now().After(settleDeadline) {
			for i := 0; i < opts.Shards; i++ {
				t.Logf("shard %d: members=%d [%s]", i, replacement.Members(i), replacement.Replica(i).Debug())
			}
			t.Fatal("shards never settled on 3 members")
		}
		for j := 0; j < 16; j++ {
			// Errors are fine: a shard mid-recovery rejects writes.
			putCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_ = settle.Put(putCtx, fmt.Sprintf("settle-%d", j), []byte("x"))
			cancel()
		}
		time.Sleep(20 * time.Millisecond)
	}

	for i := 0; i < opts.Shards; i++ {
		waitShardSync(t, nodes, i)
	}
	// All replicas byte-identical, shard by shard.
	for i := 0; i < opts.Shards; i++ {
		want := shardItems(nodes[0], i)
		for n := 1; n < len(nodes); n++ {
			got := shardItems(nodes[n], i)
			if len(got) != len(want) {
				t.Fatalf("shard %d: node %d has %d items, node 0 has %d", i, n, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("shard %d diverged at %q: node %d has %q, node 0 has %q", i, k, n, got[k], v)
				}
			}
		}
	}
	// The items agree, and so does the rest of the replicated state — the
	// dedup result window above all: a sequenced audit digests all of it.
	// Each node's AuditNow returns once its replica applied its own audit,
	// so after the last one every replica has reported node 0's.
	for _, s := range nodes {
		if err := s.AuditNow(ctx); err != nil {
			t.Fatalf("AuditNow: %v", err)
		}
	}
	if divs := hub.Health().Divergences(); len(divs) > 0 {
		t.Fatalf("replicas diverged after the rejoin: %v", divs[0])
	}
	if v := hub.Health().Rollup("kv/scenario/"); v != obs.VerdictOK {
		t.Fatalf("audit verdict %q after the rejoin, want ok:\n%s", v, hub.Health().Format("kv/scenario/"))
	}
	// Every acknowledged write survived the crash, the recovery, and the
	// rejoin — on every node, including the replacement (resilience 1:
	// one crash loses no completed Put).
	total := 0
	for w := 0; w < writers; w++ {
		total += len(acked[w])
		for key, val := range acked[w] {
			for n, s := range nodes {
				cl := s.NewClient()
				if got, ok := cl.LocalGet(key); !ok || string(got) != val {
					t.Fatalf("node %d lost acknowledged write %s=%s (has %q, found=%v)", n, key, val, got, ok)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("writers acknowledged nothing; scenario proved nothing")
	}
	t.Logf("verified %d acknowledged keys across 3 nodes and %d shards", total, opts.Shards)
}

// TestJoinGrowsCluster covers planned growth (no crash): a 4th node joins a
// loaded 3-node store and immediately serves consistent local reads.
func TestJoinGrowsCluster(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	stores := newCluster(t, ctx, net, "grow", 3, Options{Shards: 4})
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	cl := stores[0].NewClient()
	for i := 0; i < 50; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("g-%d", i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	k, err := net.NewKernel("grow-node-3")
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	s4, err := Join(ctx, k, "grow", Options{Shards: 4})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer s4.Close()
	// All pre-join state must have arrived by transfer.
	cl4 := s4.NewClient()
	for i := 0; i < 50; i++ {
		if v, ok := cl4.LocalGet(fmt.Sprintf("g-%d", i)); !ok || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("joiner missing g-%d (got %q, found=%v)", i, v, ok)
		}
	}
	// And post-join writes through the new node reach the old ones.
	if err := cl4.Put(ctx, "from-new-node", []byte("hi")); err != nil {
		t.Fatalf("Put via joiner: %v", err)
	}
	if v, ok, err := cl.Get(ctx, "from-new-node"); err != nil || !ok || string(v) != "hi" {
		t.Fatalf("old node Get = %q %v %v", v, ok, err)
	}
}

// TestLeaveShrinksEveryShard checks Store.Leave: the node departs every
// shard group in total order, so the survivors' groups shrink at once and
// keep taking writes with no Reset, even for the shard the leaver
// sequenced.
func TestLeaveShrinksEveryShard(t *testing.T) {
	ctx := ctxT(t, 30*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	const shards = 4
	stores := newCluster(t, ctx, net, "leave", 3, Options{Shards: shards})
	defer closeAll(stores[:2])
	if err := stores[2].Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	for _, s := range stores[:2] {
		for i := 0; i < shards; i++ {
			deadline := time.Now().Add(5 * time.Second)
			for s.Members(i) != 2 {
				if time.Now().After(deadline) {
					t.Fatalf("shard %d still has %d members after node 2 left", i, s.Members(i))
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	cl := stores[0].NewClient()
	for i := 0; i < shards*4; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("after-leave-%d", i), []byte("v")); err != nil {
			t.Fatalf("Put after Leave: %v", err)
		}
	}
}

// TestBoundedReplicationPlacement pins where each boot mode puts shards and
// sequencers: shard i lives on nodes {i, i+1} mod 4, and node i mod 4
// sequences it, whether the store boots in memory, durable on a fresh
// directory, or durable again from its logs after every node was killed.
func TestBoundedReplicationPlacement(t *testing.T) {
	const nodes, shards = 4, 4
	opts := Options{Shards: shards, Replication: 2}
	for _, mode := range []string{"in-memory", "durable-fresh", "durable-restart"} {
		t.Run(mode, func(t *testing.T) {
			net := amoeba.NewMemoryNetwork()
			defer func() { net.Close() }()
			var stores []*Store
			switch mode {
			case "in-memory":
				stores = newCluster(t, ctxT(t, 30*time.Second), net, "bounded", nodes, opts)
			case "durable-fresh":
				stores = bootDurable(t, net, "bounded", t.TempDir(), nodes, opts, 0)
			case "durable-restart":
				dir := t.TempDir()
				first := bootDurable(t, net, "bounded", dir, nodes, opts, 0)
				// One write per shard, applied on both hosts, so both logs
				// end at the same seq and the cold-start election ties to
				// the preferred rank. Without it the joiner wins: its log
				// starts at the transfer point, past its join, while the
				// creator journals no membership events and recovers 0.
				for i := 0; i < shards; i++ {
					if err := first[i%nodes].NewClient().Put(ctxT(t, 10*time.Second), keyOn(first[0], i), []byte("w")); err != nil {
						t.Fatalf("Put on shard %d: %v", i, err)
					}
					waitShardSync(t, []*Store{first[i%nodes], first[(i+1)%nodes]}, i)
				}
				closeAll(first)
				net.Close()
				net = amoeba.NewMemoryNetwork()
				stores = bootDurable(t, net, "bounded", dir, nodes, opts, 1)
			}
			defer closeAll(stores)
			checkBoundedPlacement(t, stores, opts)
		})
	}
}

// checkBoundedPlacement asserts the placement of a 4-node, 4-shard store
// with replication 2, and that clients serve exactly the hosted shards.
func checkBoundedPlacement(t *testing.T, stores []*Store, opts Options) {
	t.Helper()
	ctx := ctxT(t, 30*time.Second)
	nodes := len(stores)
	for i := 0; i < opts.Shards; i++ {
		for n := 0; n < nodes; n++ {
			want := n == i || n == (i+1)%nodes
			if got := stores[n].HostsShard(i); got != want {
				t.Errorf("node %d hosts shard %d = %v, want %v", n, i, got, want)
			}
		}
		host := stores[i%nodes]
		if m := host.Members(i); m != opts.Replication {
			t.Errorf("shard %d has %d members, want %d", i, m, opts.Replication)
		}
		if !host.Replica(i).Info().IsSequencer {
			t.Errorf("node %d does not sequence shard %d", i%nodes, i)
		}
	}
	// A client on a hosting node serves the shard; on a non-hosting node
	// it fails with a clear error rather than hanging.
	key0 := keyOn(stores[0], 0)
	if err := stores[0].NewClient().Put(ctx, key0, []byte("v")); err != nil {
		t.Fatalf("Put on hosting node: %v", err)
	}
	if v, ok := stores[1].NewClient().LocalGet(key0); !ok || string(v) != "v" {
		// Node 1 hosts shard 0 too ((1-0)%4 < 2) — replica must converge.
		waitShardSync(t, []*Store{stores[0], stores[1]}, 0)
		if v, ok := stores[1].NewClient().LocalGet(key0); !ok || string(v) != "v" {
			t.Fatalf("replica on second host missing write: %q %v", v, ok)
		}
	}
	// Without a kv.Service anywhere, a non-hosting node's client has no
	// proxy to reach shard 0 through: the write must fail when its
	// context expires instead of blocking forever (the proxying path
	// itself is exercised in service_test.go).
	shortCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := stores[2].NewClient().Put(shortCtx, key0, []byte("x")); err == nil {
		t.Fatal("Put on non-hosting node with no service succeeded, want error")
	}
	if _, ok := stores[2].NewClient().LocalGet(key0); ok {
		t.Fatal("LocalGet on non-hosting node reported found")
	}
}

// keyOn returns a key that shard i owns.
func keyOn(s *Store, i int) string {
	for n := 0; ; n++ {
		if k := fmt.Sprintf("probe-%d", n); s.ShardFor(k) == i {
			return k
		}
	}
}
