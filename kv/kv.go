// Package kv is a sharded, replicated key-value service built on the group
// communication system: the layer the paper's §5 applications point toward,
// scaled past the single-sequencer bottleneck.
//
// A store partitions its keyspace by consistent hashing across N independent
// shard groups. Each shard is a shared.Replica — a map state machine kept
// identical on every node by the group's total order, with Isis-style atomic
// state transfer when a node (re)joins. Because every shard has its own
// sequencer, and Bootstrap spreads the shards' sequencers round-robin across
// the nodes, aggregate write throughput grows with the shard count instead
// of saturating one sequencer machine — the multi-group scaling the paper
// measures in Figure 6, put to work.
//
// # Topology
//
// By default every node hosts one replica of every shard, so any node can
// serve any key locally. Options.Replication bounds the factor instead:
// shard i then lives only on nodes {i, …, i+R−1} mod nodes, each write
// interrupts R machines rather than all of them, and aggregate capacity
// grows with the node count — the deployment shape behind the sharded
// benchmark. Nodes are created together with Bootstrap (which places shard
// i's sequencer on node i mod nodes) or added later with Join (which
// state-transfers every hosted shard). Both open shards the same way. A
// fresh boot opens every shard's creator first and then all joiners at once;
// a durable restart opens every shard on every node at once, so each
// shard's cold-start election sees every surviving log. A boot that fails
// leaves what it joined, through Store.Leave.
//
// The shard count is NOT frozen at Bootstrap: Store.Resharding splits or
// merges a live store's shard groups under load, coordinating the handoff
// through an epoch-versioned routing table (see Routing and reshard.go) —
// the way the paper's Amoeba applications added groups as load grew.
//
// # Consistency
//
// Writes (Put, Delete, CAS) are sequenced through the owning shard's total
// order. Reads take one of four paths. A sequenced Get (Client.Get/MGet)
// injects a read marker into the same total order and reports the value at
// the marker's position: linearizable, at the cost of a group send. With
// Options.Leases, a replica holding a sequencer-granted read lease serves
// that Get from local state, still linearizable, with no group send.
// Client.StaleGet is served locally by any replica that can prove it trails
// the total order by at most maxStale. Client.LocalGet reads this node's
// replica directly: no network traffic, and no bound on how far it trails.
package kv

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/obs"
	"amoeba/shared"
	"amoeba/wal"
)

// Options configures a store.
type Options struct {
	// Shards is the number of independent shard groups at bootstrap
	// (default 4). All nodes of one store must agree on it; the live count
	// afterwards is governed by the routing table (Store.Routing) and
	// changed with Store.Resharding.
	Shards int
	// Replication is the number of nodes hosting each shard. 0 (the
	// default) replicates every shard on every node, so any node serves
	// any key locally. A bounded factor (2 or 3) places shard i on nodes
	// {i, i+1, …, i+R−1} mod nodes: each write then interrupts only R
	// machines instead of all of them, which is what lets aggregate
	// throughput grow with the node count — but a Client can only reach
	// shards its node hosts, and live resharding requires full
	// replication.
	Replication int
	// Nodes is the cluster's node count — the modulus of the placement
	// rule. Bootstrap fills it in; Join with bounded replication requires
	// it (with NodeIndex) to know which shards to host.
	Nodes int
	// NodeIndex is this node's placement slot in [0, Nodes). Bootstrap
	// fills it in; Join with bounded replication requires it (a
	// replacement node takes the slot of the node it replaces).
	NodeIndex int
	// DataDir, when set, makes every hosted shard durable: each replica
	// journals its deliveries to a write-ahead log under
	// DataDir/<store>/node-<n>/shard-<i> and checkpoints snapshots, so a
	// restart of every node at once — the failure replication cannot mask
	// — recovers all data and the command-id dedup state (retried
	// commands stay exactly-once across the restart). Requires Nodes and
	// NodeIndex (Bootstrap fills them in). Empty (the default) keeps the
	// paper's in-memory semantics.
	DataDir string
	// WALSync fsyncs every journal append: durability against power loss
	// rather than process crashes, at a throughput cost.
	WALSync bool
	// WALSyncDelay, with WALSync, coalesces fsyncs across delivery
	// bursts: an append marks the log dirty and the fsync runs at most
	// this long after it, so a slow disk batches group commits instead of
	// paying one rotation per burst. Zero syncs every append.
	WALSyncDelay time.Duration
	// WALFaultHook, when non-nil, is passed to every shard replica's log so
	// adversarial tests can inject disk-full and torn-tail failures mid-run;
	// the hook receives each log's directory, so one process-wide hook can
	// target a single replica (see wal.Options.FaultHook). Nil injects
	// nothing.
	WALFaultHook wal.FaultHook
	// CheckpointEvery is the number of journaled commands between
	// snapshot checkpoints per shard (default 1024).
	CheckpointEvery int
	// TxnRecoveryAfter is how long a transaction's prepare locks may sit
	// before the per-node janitor asks the home shard to arbitrate — the
	// coordinator client died mid-2PC (default 3s). Recovery is
	// idempotent, so a timid value only delays lock release and an eager
	// one only races (and loses to) a live coordinator's own resolve.
	TxnRecoveryAfter time.Duration
	// AuditEvery, when positive, runs the self-audit driver: every period
	// each hosted shard's sequencer submits a sequenced audit command, all
	// replicas digest their state at the same position in the total order,
	// and the node-local auditor (Group.Obs.Health) compares the digests —
	// flagging any divergence with its shard, audit seq, and key-range.
	// Zero (the default) disables the periodic driver; AuditNow still
	// works, and replicas still report digests for audits other nodes
	// submit.
	AuditEvery time.Duration
	// Leases enables sequencer-granted read leases on every shard group:
	// replicas holding a valid lease serve Get/MGet from local state —
	// linearizable without a group send — and every replica answers
	// Client.StaleGet at a bounded staleness. The price is on the write
	// path (acceptance waits for each live lease holder's stored-ack) and
	// on failover (the group pauses while old grants expire); see
	// amoeba.GroupOptions.LeaseDur. Defaults Group.LeaseDur to 2s and
	// Group.SyncInterval to 250ms when they are unset; setting
	// Group.LeaseDur directly works too.
	Leases bool
	// Group configures every shard group (resilience, method, history —
	// see amoeba.GroupOptions).
	Group amoeba.GroupOptions
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.TxnRecoveryAfter <= 0 {
		o.TxnRecoveryAfter = 3 * time.Second
	}
	if o.Leases && o.Group.LeaseDur <= 0 {
		o.Group.LeaseDur = 2 * time.Second
	}
	if o.Group.LeaseDur > 0 {
		o.Leases = true
		if o.Group.SyncInterval <= 0 {
			// The default 500ms tick would leave little renewal headroom
			// under a 2s lease; grant on a tighter cadence.
			o.Group.SyncInterval = 250 * time.Millisecond
		}
	}
	return o
}

// shardGroupName names shard i's group. Group names are global on the
// network, so the store name namespaces them.
func shardGroupName(store string, i int) string {
	return fmt.Sprintf("kv/%s/shard-%d", store, i)
}

// shardDataDir is one replica's private log directory: per store, per node
// slot, per shard — two replicas must never share a log.
func shardDataDir(dataDir, store string, node, shard int) string {
	return filepath.Join(dataDir, store, fmt.Sprintf("node-%d", node), fmt.Sprintf("shard-%d", shard))
}

// hostsShard reports whether placement slot nodeIndex hosts shard i under
// the placement rule: shard i lives on nodes {i, i+1, …, i+repl−1} mod
// nodes. repl ≤ 0 means full replication.
func hostsShard(i, nodeIndex, nodes, repl int) bool {
	if repl <= 0 || repl >= nodes {
		return true
	}
	return (nodeIndex-i%nodes+nodes)%nodes < repl
}

// Store is one node's handle on a sharded store: a replica of every shard,
// hosted on a single kernel.
//
// A store self-heals: if one of its shard replicas is expelled — the group
// recovered while this node was too slow to vote, the paper's unreliable
// failure detector at work — a background watcher rejoins that shard with
// atomic state transfer and swaps the fresh replica in. Client operations
// in flight across the swap fail with ErrStopped internally and are retried
// against the new replica (commands are deduplicated by id, so a retry of an
// already-applied command is not re-executed).
//
// A store also follows the routing table: when a migrate-begin announcing
// new shard groups is applied by any hosted replica, a topology worker
// creates or joins the groups this node should host, and when an epoch flip
// retires shards (a merge), it leaves their groups and reclaims their logs.
// Every node converges on the table independently — the coordinator only
// drives the sequenced commands.
type Store struct {
	name   string
	opts   Options
	kernel *amoeba.Kernel

	// The node-local view of the replicated routing table: the highest
	// epoch any hosted replica has applied, plus the per-shard pending
	// (mid-handoff) tables still installed. pendingRt derives from
	// shardPending: it stays non-nil while ANY hosted shard still
	// carries a pending table — even after the store-level epoch already
	// flipped (a crash between per-shard commits leaves stragglers whose
	// freeze only the resume path can lift). Guarded by routeMu;
	// routeWake is closed and replaced on every change (see
	// RoutingWatch).
	routeMu      sync.RWMutex
	routing      Routing
	ring         *ring
	pendingRt    *Routing
	shardPending map[int]Routing
	routeWake    chan struct{}

	// idNonce + idSeq mint command ids for this store's own sequenced
	// commands (migration protocol).
	idNonce uint64
	idSeq   atomic.Uint64

	// reshardMu serialises coordinators on this node; coordinating marks
	// an active handoff driven from this node (it elects this node the
	// creator of in-memory split groups).
	reshardMu    sync.Mutex
	coordinating atomic.Bool

	mu     sync.RWMutex
	shards []*shared.Replica // index = shard id; grows on split
	closed bool

	// Read-path counters: how many reads each shortcut served and how many
	// fell back to the sequenced read marker. Exported as the
	// amoeba_kv_lease_* metric families.
	leaseServed   atomic.Uint64
	leaseFallback atomic.Uint64
	staleServed   atomic.Uint64
	staleFallback atomic.Uint64
	obsUnreg      func()

	ensureCh   chan struct{}
	healCtx    context.Context
	healCancel context.CancelFunc
	healWG     sync.WaitGroup
}

func newStore(name string, k *amoeba.Kernel, opts Options, shards int) *Store {
	ctx, cancel := context.WithCancel(context.Background())
	rt := Routing{Epoch: 0, Shards: opts.Shards, VNodes: defaultVirtualNodes}
	s := &Store{
		name:         name,
		opts:         opts,
		kernel:       k,
		routing:      rt,
		ring:         rt.ring(name),
		shardPending: make(map[int]Routing),
		routeWake:    make(chan struct{}),
		idNonce:      clientNonce(),
		shards:       make([]*shared.Replica, shards),
		ensureCh:     make(chan struct{}, 1),
		healCtx:      ctx,
		healCancel:   cancel,
	}
	s.obsUnreg = opts.Group.Obs.Registry().RegisterSource(func() []obs.Sample {
		return []obs.Sample{
			{Name: "amoeba_kv_lease_reads_total", Value: s.leaseServed.Load()},
			{Name: "amoeba_kv_lease_fallbacks_total", Value: s.leaseFallback.Load()},
			{Name: "amoeba_kv_stale_reads_total", Value: s.staleServed.Load()},
			{Name: "amoeba_kv_stale_fallbacks_total", Value: s.staleFallback.Load()},
		}
	})
	return s
}

// newShardSM builds shard i's state machine, wired to report routing changes
// back to this store.
func (s *Store) newShardSM(shard int) *mapSM {
	sm := newMapSM(s.name, shard, s.Routing(), defaultResultWindow, s.noteRouting)
	if hub := s.opts.Group.Obs; hub != nil {
		sm.tracer = hub.Tracer()
		sm.flight = hub.Flight()
		aud, node := hub.Health(), auditNodeName(s.opts.NodeIndex)
		sm.onAudit = func(shard int, d obs.Digest) {
			aud.Report(auditScope(s.name, shard), node, d)
		}
	}
	return sm
}

// nextCmdID mints a command id for the store's own sequenced commands.
func (s *Store) nextCmdID() uint64 { return s.idNonce + s.idSeq.Add(1) }

// Routing returns the store's current routing table: the highest epoch any
// hosted replica has applied.
func (s *Store) Routing() Routing {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return s.routing
}

// PendingRouting returns the mid-handoff table a migrate-begin announced, or
// nil when no handoff is in progress.
func (s *Store) PendingRouting() *Routing {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	if s.pendingRt == nil {
		return nil
	}
	rt := *s.pendingRt
	return &rt
}

// routingRing returns the current ring and table under one lock.
func (s *Store) routingRing() (*ring, Routing) {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return s.ring, s.routing
}

// RoutingWatch returns a channel closed at the next routing change (epoch
// flip or handoff start). Re-call after each wakeup for the next one.
func (s *Store) RoutingWatch() <-chan struct{} {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return s.routeWake
}

// noteRouting folds one replica's routing state into the node-local view.
// It is called by shard state machines under their replica lock (including
// during write-ahead-log recovery), so it must not call back into replicas;
// topology work happens on the worker goroutine it nudges.
func (s *Store) noteRouting(shard int, cur Routing, pending Routing, hasPending bool) {
	s.routeMu.Lock()
	changed := false
	if cur.Epoch > s.routing.Epoch || (cur.Epoch == s.routing.Epoch && cur.Shards != s.routing.Shards) {
		s.routing = cur
		s.ring = cur.ring(s.name)
		changed = true
	}
	if hasPending {
		if prev, ok := s.shardPending[shard]; !ok || prev != pending {
			s.shardPending[shard] = pending
			changed = true
		}
	} else if _, ok := s.shardPending[shard]; ok {
		delete(s.shardPending, shard)
		changed = true
	}
	// The derived pending view: the highest-epoch table any hosted shard
	// still carries. NOT gated on the store-level epoch — a straggler
	// whose siblings already committed must keep the handoff resumable.
	var best *Routing
	for _, p := range s.shardPending {
		if best == nil || p.Epoch > best.Epoch {
			p := p
			best = &p
		}
	}
	switch {
	case best == nil && s.pendingRt != nil,
		best != nil && (s.pendingRt == nil || *best != *s.pendingRt):
		s.pendingRt = best
		changed = true
	}
	if changed {
		close(s.routeWake)
		s.routeWake = make(chan struct{})
	}
	s.routeMu.Unlock()
	if changed {
		s.nudgeTopology()
	}
}

// nudgeTopology asks the topology worker to reconcile hosted shards with the
// routing table.
func (s *Store) nudgeTopology() {
	select {
	case s.ensureCh <- struct{}{}:
	default:
	}
}

// startSelfHeal launches the per-shard watchers and the topology worker;
// called once construction succeeded.
func (s *Store) startSelfHeal() {
	s.mu.RLock()
	n := len(s.shards)
	s.mu.RUnlock()
	for i := 0; i < n; i++ {
		if s.Replica(i) == nil {
			continue // not hosted under bounded replication
		}
		s.healWG.Add(1)
		go s.watchShard(i)
	}
	s.healWG.Add(1)
	go s.topologyWorker()
	s.healWG.Add(1)
	go s.txnJanitor(s.healCtx)
	if s.opts.AuditEvery > 0 && s.opts.Group.Obs != nil {
		s.healWG.Add(1)
		go s.auditDriver(s.healCtx)
	}
	s.nudgeTopology()
}

// flight returns the store's flight recorder (nil-safe: a nil hub records
// nothing).
func (s *Store) flight() *obs.Recorder {
	return s.opts.Group.Obs.Flight()
}

// watchShard rejoins shard i whenever its replica stops underneath us.
func (s *Store) watchShard(i int) {
	defer s.healWG.Done()
	for {
		s.mu.RLock()
		var r *shared.Replica
		if i < len(s.shards) {
			r = s.shards[i]
		}
		s.mu.RUnlock()
		if r == nil {
			return // retired (or never hosted)
		}
		// Block until the replica stops; the always-false predicate makes
		// Wait return only on ErrStopped (expelled or closed) or ctx end.
		err := r.Wait(s.healCtx, func(shared.StateMachine) bool { return false })
		if s.healCtx.Err() != nil || !errors.Is(err, shared.ErrStopped) {
			return
		}
		s.mu.RLock()
		closed := s.closed
		current := i < len(s.shards) && s.shards[i] == r
		s.mu.RUnlock()
		if closed || !current {
			return // store closing, or the shard was retired/swapped
		}
		if rt := s.Routing(); i >= rt.Shards && s.PendingRouting() == nil {
			return // shard retired by a merge: nothing to heal
		}
		r.Close() // release the expelled replica's transfer service (and log)
		rep, err := s.openShard(s.healCtx, i, false)
		if err != nil {
			if s.healCtx.Err() != nil {
				return
			}
			// Unexpected failure (e.g. a second expulsion raced the
			// rejoin in a way joinShard does not classify): back off
			// and keep trying — giving up would strand the shard on
			// this node forever.
			select {
			case <-s.healCtx.Done():
				return
			case <-time.After(time.Second):
			}
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			rep.Close()
			return
		}
		s.shards[i] = rep
		s.mu.Unlock()
	}
}

// topologyWorker reconciles the set of hosted shard replicas with the
// routing table: joining or creating the groups a pending split announced,
// and retiring the groups an epoch flip removed (merge). It is the half of
// the handoff every node runs independently; the coordinator only drives
// the sequenced migration commands.
func (s *Store) topologyWorker() {
	defer s.healWG.Done()
	for {
		select {
		case <-s.healCtx.Done():
			return
		case <-s.ensureCh:
		}
		s.reconcileTopology()
	}
}

func (s *Store) reconcileTopology() {
	s.routeMu.RLock()
	cur := s.routing
	pending := s.pendingRt
	s.routeMu.RUnlock()
	want := cur.Shards
	if pending != nil && pending.Shards > want {
		want = pending.Shards
	}
	nodes := s.opts.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	// Grow: open replicas for announced shards this node should host.
	for i := 0; i < want; i++ {
		if !hostsShard(i, s.opts.NodeIndex, nodes, s.opts.Replication) {
			continue
		}
		s.mu.Lock()
		for len(s.shards) < want {
			s.shards = append(s.shards, nil)
		}
		have := s.shards[i] != nil
		closed := s.closed
		s.mu.Unlock()
		if have || closed {
			continue
		}
		// Bound each attempt so one unreachable group cannot wedge the
		// worker; a failure re-arms a retry nudge.
		attemptCtx, cancel := context.WithTimeout(s.healCtx, 30*time.Second)
		rep, err := s.openNewShard(attemptCtx, i)
		cancel()
		if err != nil {
			if s.healCtx.Err() == nil {
				time.AfterFunc(250*time.Millisecond, s.nudgeTopology)
			}
			continue
		}
		s.mu.Lock()
		if s.closed || s.shards[i] != nil {
			s.mu.Unlock()
			rep.Close()
			continue
		}
		s.shards[i] = rep
		s.mu.Unlock()
		s.healWG.Add(1)
		go s.watchShard(i)
	}
	// Shrink: retire shards the committed table no longer contains.
	if pending == nil {
		s.mu.RLock()
		n := len(s.shards)
		s.mu.RUnlock()
		for i := cur.Shards; i < n; i++ {
			if r := s.Replica(i); r != nil {
				s.healWG.Add(1)
				go s.retireShard(i, r, cur.Epoch)
			}
		}
	}
}

// openNewShard obtains a replica of a shard announced by a pending split.
// Durable stores run the write-ahead-log path's cold-start election (virgin
// logs everywhere: the best candidate among the nodes that are UP creates,
// so a dead preferred rank cannot strand the shard). In-memory stores have
// no election machinery, so the handoff coordinator — alive by definition —
// creates the group and everyone else joins with retry; a fixed designated
// creator would deadlock the split if that node happened to be the one
// whose death the resharding is racing.
func (s *Store) openNewShard(ctx context.Context, i int) (*shared.Replica, error) {
	if s.opts.DataDir != "" {
		return s.openShard(ctx, i, false)
	}
	if s.coordinating.Load() {
		return shared.Create(ctx, s.kernel, shardGroupName(s.name, i), s.newShardSM(i), s.opts.Group)
	}
	return s.joinShard(ctx, i)
}

// retireShard removes a shard a merge deleted: wait until the local replica
// has applied its own epoch flip (so the departure is sequenced after the
// commit), leave the group in total order, and reclaim the log directory.
func (s *Store) retireShard(i int, r *shared.Replica, epoch uint64) {
	defer s.healWG.Done()
	err := r.Wait(s.healCtx, func(sm shared.StateMachine) bool {
		return sm.(*mapSM).routing.Epoch >= epoch
	})
	s.mu.Lock()
	if s.closed || i >= len(s.shards) || s.shards[i] != r {
		s.mu.Unlock()
		return
	}
	s.shards[i] = nil
	s.mu.Unlock()
	if err == nil {
		leaveCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = r.Leave(leaveCtx)
		cancel()
	}
	r.Close()
	// Drop the shard's audit scope, or its replicas would go stale in the
	// auditor and read the store degraded for good. The prefix match is
	// safe: a retired shard's number never prefixes a surviving one's.
	s.opts.Group.Obs.Health().Forget(auditScope(s.name, i))
	if s.opts.DataDir != "" {
		// The shard's history now lives (merged) in the surviving shards'
		// logs; a leftover directory would only resurrect a zombie group
		// at the next restart.
		_ = os.RemoveAll(shardDataDir(s.opts.DataDir, s.name, s.opts.NodeIndex, i))
	}
}

// Bootstrap creates a store named name across the given kernels (one node
// per kernel) and returns a Store handle per node, in kernel order. Shard
// i's group is created by node i mod len(kernels) — spreading the
// sequencers, so with as many nodes as shards every node sequences exactly
// one shard — and joined by every other node that hosts it. A fresh boot
// opens every shard's creator first and then all joiners at once, so no
// joiner races its creator.
//
// With Options.DataDir set the store is durable, and Bootstrap doubles as
// the restart path: when the store's directory already exists, every node
// recovers its shards from their write-ahead logs (including shards a past
// Resharding added — the shard count is discovered from the logs, not taken
// from Options) and the shards' groups are reformed from the longest
// surviving log each (see shared.Open) — so re-running Bootstrap after
// killing every node brings the store back with all data intact. A restart
// opens every shard on every node at once, because each shard's cold-start
// election must see every surviving log. A handoff the crash interrupted is
// resumed (or, if it had already committed anywhere, completed) before
// Bootstrap returns; see Store.Resharding.
//
// A boot that fails unwinds through Store.Leave on every node, so it plants
// no dead members. Group creation is not atomic (paper §5); Bootstrap
// assumes no concurrent store of the same name is being created on the same
// network.
func Bootstrap(ctx context.Context, kernels []*amoeba.Kernel, name string, opts Options) ([]*Store, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("kv: bootstrap of %q needs at least one kernel", name)
	}
	opts = opts.withDefaults()
	opts.Nodes = len(kernels)
	fresh := !onDisk(opts.DataDir, name)
	shardCount := 0
	for n := range kernels {
		shardCount = max(shardCount, discoverShardCount(opts, name, n))
	}
	stores := make([]*Store, len(kernels))
	for n := range kernels {
		o := opts
		o.NodeIndex = n
		stores[n] = newStore(name, kernels[n], o, shardCount)
	}
	// Creators first on a fresh boot, so no joiner races its creator;
	// everything at once on a restart, for the cold-start elections.
	creator := func(n, i int) bool { return i%len(kernels) == n }
	phases := []func(n, i int) bool{creator, func(n, i int) bool { return !creator(n, i) }}
	if !fresh {
		phases = []func(n, i int) bool{func(int, int) bool { return true }}
	}
	for _, pick := range phases {
		if err := openShards(ctx, stores, fresh, pick); err != nil {
			leaveAll(stores)
			return nil, err
		}
	}
	for _, s := range stores {
		s.startSelfHeal()
	}
	if fresh {
		return stores, nil
	}
	// A crash mid-handoff leaves pending routing in the recovered state;
	// finish the migration deterministically before handing the store out.
	if err := stores[0].resumeResharding(ctx); err != nil {
		leaveAll(stores)
		return nil, fmt.Errorf("kv: resuming interrupted resharding of %q: %w", name, err)
	}
	// Likewise for transactions a kill-all interrupted between prepare and
	// commit: the coordinators are certainly gone, so arbitrate every
	// in-doubt prepare now instead of waiting out the janitor.
	stores[0].recoverInDoubt(ctx, 0)
	return stores, nil
}

// onDisk reports whether a durable store's directory already exists, which
// makes Bootstrap a restart from the logs rather than a fresh boot.
func onDisk(dataDir, store string) bool {
	if dataDir == "" {
		return false
	}
	_, err := os.Stat(filepath.Join(dataDir, store))
	return !os.IsNotExist(err)
}

// discoverShardCount inspects one node's data directory for shard logs a
// past Resharding may have added beyond the configured bootstrap count.
func discoverShardCount(opts Options, store string, node int) int {
	n := opts.Shards
	if opts.DataDir == "" {
		return n
	}
	entries, err := os.ReadDir(filepath.Join(opts.DataDir, store, fmt.Sprintf("node-%d", node)))
	if err != nil {
		return n
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "shard-") {
			continue
		}
		if i, err := strconv.Atoi(name[len("shard-"):]); err == nil && i+1 > n {
			n = i + 1
		}
	}
	return n
}

// openShards opens, concurrently, every shard that pick(node, shard)
// selects among those each store's placement slot hosts. The stores must
// have equal shard slices. The first failure cancels the other opens: a
// joiner whose creator never came up retries until its context ends, so
// one bad shard would otherwise hang the whole boot.
func openShards(ctx context.Context, stores []*Store, fresh bool, pick func(node, shard int) bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	shards := len(stores[0].shards)
	return fanOut(len(stores)*shards, func(j int) error {
		s, i := stores[j/shards], j%shards
		if !hostsShard(i, s.opts.NodeIndex, s.opts.Nodes, s.opts.Replication) || !pick(s.opts.NodeIndex, i) {
			return nil
		}
		rep, err := s.openShard(ctx, i, fresh)
		if err != nil {
			cancel()
			return fmt.Errorf("kv: node %d opening %s: %w", s.opts.NodeIndex, shardGroupName(s.name, i), err)
		}
		s.mu.Lock()
		s.shards[i] = rep
		s.mu.Unlock()
		return nil
	})
}

// leaveAll unwinds a failed boot: each node leaves the shard groups it
// already holds in total order (Store.Leave, 5 s per node), so the attempt
// plants no dead members, which would inherit ack duty in resilient groups
// and stall the next attempt.
func leaveAll(stores []*Store) {
	for _, s := range stores {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Leave(ctx)
		cancel()
	}
}

// Join adds a node to a running store: every shard group the node's
// placement slot hosts is joined with atomic state transfer, so when Join
// returns the node holds up-to-date replicas and serves reads and writes
// like any bootstrap node. With full replication (the default) that is every
// shard; with bounded replication, set Options.Nodes and Options.NodeIndex
// to the slot being (re)filled. Use it to grow a store or to re-admit a
// crashed node. With Options.DataDir (and Nodes and NodeIndex) set, each
// hosted shard is first recovered from its write-ahead log, so Join also
// restarts a durable node; when the whole group is gone it helps reform it
// from the surviving logs. Bootstrap restarts whole single-process clusters.
// Join opens its shards through the same path as Bootstrap, and a failed
// Join leaves whatever it joined (Store.Leave).
func Join(ctx context.Context, k *amoeba.Kernel, name string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Replication > 0 && opts.Nodes <= 0 {
		return nil, fmt.Errorf("kv: joining %q with bounded replication requires Options.Nodes and Options.NodeIndex", name)
	}
	if opts.DataDir != "" && opts.Nodes <= 0 {
		return nil, fmt.Errorf("kv: joining %q durably requires Options.Nodes and Options.NodeIndex (the cold-start election needs the node's slot)", name)
	}
	s := newStore(name, k, opts, discoverShardCount(opts, name, opts.NodeIndex))
	all := func(int, int) bool { return true }
	if err := openShards(ctx, []*Store{s}, false, all); err != nil {
		leaveAll([]*Store{s})
		return nil, err
	}
	s.startSelfHeal()
	return s, nil
}

// openShard obtains one shard replica; it is the only code that decides
// how. A durable store goes through shared.Open — recover the write-ahead
// log, join the live group if one exists, otherwise elect the longest
// surviving log to reform it — with fresh marking a declared first boot
// (see shared.Durability.Bootstrap). In memory, a fresh boot's creator (node
// shard mod Nodes) creates the group, and every other open joins it with
// retry (joinShard).
func (s *Store) openShard(ctx context.Context, shard int, fresh bool) (*shared.Replica, error) {
	nodes := max(s.opts.Nodes, 1)
	if s.opts.DataDir == "" {
		if fresh && shard%nodes == s.opts.NodeIndex {
			return shared.Create(ctx, s.kernel, shardGroupName(s.name, shard), s.newShardSM(shard), s.opts.Group)
		}
		return s.joinShard(ctx, shard)
	}
	dur := shared.Durability{
		Dir:             shardDataDir(s.opts.DataDir, s.name, s.opts.NodeIndex, shard),
		Sync:            s.opts.WALSync,
		SyncDelay:       s.opts.WALSyncDelay,
		CheckpointEvery: s.opts.CheckpointEvery,
		FaultHook:       s.opts.WALFaultHook,
		Rank:            s.opts.NodeIndex,
		Peers:           nodes,
		Preferred:       shard % nodes,
		Bootstrap:       fresh,
	}
	return shared.Open(ctx, s.kernel, shardGroupName(s.name, shard), s.newShardSM(shard), s.opts.Group, dur)
}

// joinShard joins one shard group, retrying the failures that a group in
// mid-recovery produces: ErrNoGroup (the sequencer died and the survivors
// have not rebuilt yet, or the join raced a reset), ErrTransferFailed (no
// member could donate a current snapshot in time), and ErrNotMember (a
// recovery excluded the half-joined member before the transfer finished).
// The caller's ctx bounds the retries; a group whose survivors never
// recover fails when ctx does.
func (s *Store) joinShard(ctx context.Context, shard int) (*shared.Replica, error) {
	group := shardGroupName(s.name, shard)
	for {
		rep, err := shared.Join(ctx, s.kernel, group, s.newShardSM(shard), s.opts.Group)
		if err == nil {
			return rep, nil
		}
		if !errors.Is(err, amoeba.ErrNoGroup) && !errors.Is(err, shared.ErrTransferFailed) &&
			!errors.Is(err, amoeba.ErrNotMember) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, err // the transient error names the stuck shard
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Name returns the store's name.
func (s *Store) Name() string { return s.name }

// Shards returns the live shard count under the current routing table.
func (s *Store) Shards() int { return s.Routing().Shards }

// ShardFor returns the shard owning key under the current routing table.
func (s *Store) ShardFor(key string) int {
	r, _ := s.routingRing()
	return r.shard(key)
}

// HostsShard reports whether this node hosts a replica of shard i.
func (s *Store) HostsShard(i int) bool { return s.Replica(i) != nil }

// expectsShard reports whether this node's placement slot should host shard
// i under the current (or pending) table — true with a nil Replica means
// the topology worker is still opening it (mid-split), and local callers
// should wait rather than assume a remote owner.
func (s *Store) expectsShard(i int) bool {
	s.routeMu.RLock()
	want := s.routing.Shards
	if s.pendingRt != nil && s.pendingRt.Shards > want {
		want = s.pendingRt.Shards
	}
	s.routeMu.RUnlock()
	if i < 0 || i >= want {
		return false
	}
	nodes := s.opts.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	return hostsShard(i, s.opts.NodeIndex, nodes, s.opts.Replication)
}

// Replica exposes shard i's underlying replica, for group-level operations
// (Reset, Info, Applied) and advanced reads. After a self-heal the handle a
// caller holds may be the stopped predecessor; call Replica again for the
// current one.
func (s *Store) Replica(i int) *shared.Replica {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	return s.shards[i]
}

// leasesOn reports whether this store's shard groups grant read leases.
func (s *Store) leasesOn() bool { return s.opts.Group.LeaseDur > 0 }

// LeaseStats reports the store's read-path counters: reads served under a
// lease, lease attempts that fell back to the sequenced marker, bounded-stale
// reads served, and stale attempts that fell back.
func (s *Store) LeaseStats() (leased, leaseFallback, stale, staleFallback uint64) {
	return s.leaseServed.Load(), s.leaseFallback.Load(), s.staleServed.Load(), s.staleFallback.Load()
}

// leaseGet answers a single-shard multi-key read from shard's local replica
// under its read lease — linearizable with no group send. Safe across a live
// reshard: the lease watermark covers every completed write, and a completed
// migrate-begin is itself lease-gated, so any key moving away is already
// frozen (serves() false) in the state a valid lease exposes.
func (s *Store) leaseGet(shard int, keys []string) (*Response, bool) {
	return s.localRead(shard, keys, ReadLease, &s.leaseServed, &s.leaseFallback, (*shared.Replica).LeaseRead)
}

// staleGet answers a single-shard multi-key read from shard's local replica
// at a bounded staleness (no lease required — the follower-read path). The
// bound covers the total order, not the handoff freeze, so frozen or locked
// keys fall back like leaseGet's.
func (s *Store) staleGet(shard int, keys []string, maxStale time.Duration) (*Response, bool) {
	if maxStale <= 0 {
		return nil, false
	}
	var bound time.Duration
	resp, ok := s.localRead(shard, keys, ReadStale, &s.staleServed, &s.staleFallback,
		func(r *shared.Replica, read func(shared.StateMachine)) (ok bool) {
			bound, ok = r.StaleRead(maxStale, read)
			return ok
		})
	if ok {
		resp.StaleFor = bound
	}
	return resp, ok
}

// localRead copies keys' values out of shard's local replica through gate
// (Replica.LeaseRead or Replica.StaleRead), stamping path on the answer and
// counting the outcome in served or fallback. It fails (false) when the
// replica is absent, the gate refuses, or any key is frozen by a live
// handoff or locked by a prepared transaction; the caller then falls back
// to the sequenced read marker, whose Moved/locked handling is the one
// retry loop.
func (s *Store) localRead(shard int, keys []string, path byte, served, fallback *atomic.Uint64,
	gate func(*shared.Replica, func(shared.StateMachine)) bool) (*Response, bool) {
	r := s.Replica(shard)
	if r == nil {
		return nil, false
	}
	resp := &Response{OK: true, ReadPath: path,
		Values: make([][]byte, len(keys)), Found: make([]bool, len(keys))}
	all := true
	ok := gate(r, func(sm shared.StateMachine) {
		m := sm.(*mapSM)
		for i, k := range keys {
			if !m.serves(k) || m.locked(k) {
				all = false
				return
			}
			if v, found := m.items[k]; found {
				resp.Values[i] = append([]byte(nil), v...)
				resp.Found[i] = true
			}
		}
	})
	if !ok || !all {
		fallback.Add(1)
		return nil, false
	}
	served.Add(1)
	return resp, true
}

// isClosed reports whether Close or Leave has begun.
func (s *Store) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// snapshotShards copies the current replica set under the lock.
func (s *Store) snapshotShards() []*shared.Replica {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*shared.Replica(nil), s.shards...)
}

// Reset rebuilds every shard group after a node crash, requiring at least
// minAlive surviving members per shard; see amoeba.Group.Reset. This node
// becomes the sequencer of every shard it resets, so prefer calling Reset on
// different surviving nodes for different shards — or set
// Options.Group.AutoReset and skip manual recovery entirely.
func (s *Store) Reset(ctx context.Context, minAlive int) error {
	for i, r := range s.snapshotShards() {
		if r == nil {
			continue
		}
		if err := r.Reset(ctx, minAlive); err != nil {
			return fmt.Errorf("kv: resetting shard %d: %w", i, err)
		}
	}
	return nil
}

// Members reports the replica-set size of shard i (0 if this node does not
// host it).
func (s *Store) Members(i int) int {
	r := s.Replica(i)
	if r == nil {
		return 0
	}
	return r.Members()
}

// Close stops the node without protocol goodbye: to the rest of the store,
// this node has crashed. Surviving nodes recover with Reset (or AutoReset).
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	shards := append([]*shared.Replica(nil), s.shards...)
	s.mu.Unlock()
	s.healCancel()
	s.obsUnreg()
	var wg sync.WaitGroup
	for _, r := range shards {
		if r == nil {
			continue
		}
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Close()
		}()
	}
	wg.Wait()
	s.healWG.Wait()
}

// Leave departs every shard group in total order, all groups at once, and
// stops the node. Shards whose goodbye does not complete before ctx ends are
// closed anyway.
func (s *Store) Leave(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	shards := append([]*shared.Replica(nil), s.shards...)
	s.mu.Unlock()
	s.healCancel()
	s.obsUnreg()
	s.healWG.Wait()
	return fanOut(len(shards), func(i int) error {
		if shards[i] == nil {
			return nil
		}
		return shards[i].Leave(ctx) // Leave closes the replica even when it fails
	})
}
