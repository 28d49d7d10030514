package kv

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/obs"
	"amoeba/shared"
)

// errMoved reports a command that reached a shard which does not serve the
// key at that point in the total order: the range is frozen mid-handoff or
// already moved to another shard. The caller re-resolves the owner under
// the (possibly updated) routing table and retries; command ids keep the
// retry exactly-once.
var errMoved = errors.New("kv: key range moved or frozen by resharding")

// movedRetryDelay spaces retries of operations held by a frozen range while
// the handoff completes.
const movedRetryDelay = 20 * time.Millisecond

// Client issues key-value operations against a store. Methods are safe for
// concurrent use; create several clients for independent command streams.
//
// A client is transport-agnostic: every operation is a Request routed to the
// shard owning its key, and each shard is reached over whichever access path
// is available —
//
//   - local fast path: the shard is hosted on the node the client is bound
//     to (Store.NewClient); the command goes straight into the in-process
//     replica, no wire protocol involved;
//   - direct RPC: the client knows the routing table, so it calls the
//     shard's well-known address (ShardAddr), served by every hosting node;
//   - proxied: the client holds only an entry node's address (Dial) — or
//     just the store's name (DialOptions.Anycast); the entry node serves
//     shards it hosts and answers misroutes with a ForwardRequest to an
//     owning node — the reply comes back from wherever the request lands.
//
// All three speak the same versioned codec (see EncodeRequest), and command
// ids chosen here are deduplicated by the replicas, so retries across paths,
// forwards, failovers, and routing epochs stay exactly-once. Sequenced reads
// run the read marker through the total order on whichever replica serves
// them, so Get and MGet are linearizable over every path.
//
// Requests carry the client's routing epoch; a serving node at a different
// epoch answers with its own table attached, and the client adopts it — so
// a client that dialed a 4-shard store keeps working, without any config
// service, while the store resplits to 8.
type Client struct {
	s       *Store // local binding; nil for Dial'd clients
	kernel  *amoeba.Kernel
	cluster string
	entry   amoeba.Addr // entry-node address; 0: direct shard addressing only
	anycast bool        // fall back to the store-wide anycast entry address
	nonce   uint64
	seq     atomic.Uint64

	// Dial'd clients with ring knowledge cache their own routing view,
	// refreshed from responses; bound clients read the store's.
	rtMu  sync.RWMutex
	rt    Routing
	cring *ring // nil: no ring knowledge, everything goes via entry

	// The RPC connection pool, one client per shard (key -1: the entry
	// path). Per-shard pooling keeps a slow shard's in-flight calls from
	// head-of-line blocking reads bound for its siblings, which is what
	// lets a fleet-shaped reader drive every shard's lease holders at once.
	rpcMu   sync.Mutex
	rpcPool map[int]*amoeba.RPCClient
	closed  bool

	// Topology learned from v4 responses (bound clients read the store's
	// options instead): node count and replication factor, which combined
	// with the placement rule name the nodes hosting each shard — the
	// targets lease-read distribution rotates over.
	topoNodes atomic.Int64
	topoRepl  atomic.Int64
	readSeq   atomic.Uint64 // lease-read rotation cursor

	localOps  atomic.Uint64
	remoteOps atomic.Uint64
	rtUpdates atomic.Uint64
	// Read-path counters: reads served under a lease or at bounded
	// staleness (locally or reported by a remote ReadPath), and reads that
	// fell back to the sequenced marker.
	leaseReads atomic.Uint64
	staleReads atomic.Uint64

	// Observability (nil = no-op): submit→reply latency split by access
	// path, plus the op tracer keyed by command ids.
	localH   *obs.Histogram // amoeba_kv_client_local_ns
	directH  *obs.Histogram // amoeba_kv_client_direct_ns
	fwdH     *obs.Histogram // amoeba_kv_client_forwarded_ns
	tracer   *obs.Tracer
	obsUnreg func() // detaches the stats source from the hub registry

	// Transaction instrumentation (see txn.go).
	txnPrepH     *obs.Histogram // amoeba_kv_txn_prepare_ns
	txnResH      *obs.Histogram // amoeba_kv_txn_resolve_ns
	txnTotalH    *obs.Histogram // amoeba_kv_txn_total_ns
	txnCommitted atomic.Uint64
	txnAborted   atomic.Uint64
	txnConflicts atomic.Uint64
}

// wireObs resolves the client's instruments from a hub (nil hub = no-op).
func (c *Client) wireObs(hub *obs.Hub) {
	c.localH = hub.Histogram("amoeba_kv_client_local_ns")
	c.directH = hub.Histogram("amoeba_kv_client_direct_ns")
	c.fwdH = hub.Histogram("amoeba_kv_client_forwarded_ns")
	c.txnPrepH = hub.Histogram("amoeba_kv_txn_prepare_ns")
	c.txnResH = hub.Histogram("amoeba_kv_txn_resolve_ns")
	c.txnTotalH = hub.Histogram("amoeba_kv_txn_total_ns")
	c.tracer = hub.Tracer()
	if reg := hub.Registry(); reg != nil {
		c.obsUnreg = reg.RegisterSource(func() []obs.Sample {
			return []obs.Sample{
				{Name: "amoeba_kv_client_local_ops_total", Value: c.localOps.Load()},
				{Name: "amoeba_kv_client_remote_ops_total", Value: c.remoteOps.Load()},
				{Name: "amoeba_kv_client_routing_updates_total", Value: c.rtUpdates.Load()},
				{Name: "amoeba_kv_client_lease_reads_total", Value: c.leaseReads.Load()},
				{Name: "amoeba_kv_client_stale_reads_total", Value: c.staleReads.Load()},
				{Name: "amoeba_kv_client_txn_committed_total", Value: c.txnCommitted.Load()},
				{Name: "amoeba_kv_client_txn_aborted_total", Value: c.txnAborted.Load()},
				{Name: "amoeba_kv_client_txn_conflict_retries_total", Value: c.txnConflicts.Load()},
			}
		})
	}
}

// ClientStats counts which access paths a client's operations took.
type ClientStats struct {
	// LocalOps counts operations (or per-shard parts of multi-shard
	// operations) served by the in-process fast path.
	LocalOps uint64
	// RemoteOps counts parts that left the client over RPC (direct to a
	// shard's address or via the entry node).
	RemoteOps uint64
	// RoutingUpdates counts routing tables adopted from responses (a
	// server at a different epoch taught the client the new table).
	RoutingUpdates uint64
	// LeaseReads counts reads served from a replica's state under a read
	// lease (locally or remotely) instead of a sequenced marker.
	LeaseReads uint64
	// StaleReads counts reads served at a bounded staleness (StaleGet's
	// fast path).
	StaleReads uint64
}

// Stats returns a snapshot of the client's access-path counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		LocalOps:       c.localOps.Load(),
		RemoteOps:      c.remoteOps.Load(),
		RoutingUpdates: c.rtUpdates.Load(),
		LeaseReads:     c.leaseReads.Load(),
		StaleReads:     c.staleReads.Load(),
	}
}

// NewClient returns a client bound to this node: shards hosted here are
// served in process, and — when the store runs with bounded replication —
// shards hosted elsewhere are reached over RPC through their well-known
// addresses, provided the hosting nodes run a Service. The client shares
// the node's routing table, so it follows reshardings as they commit.
func (s *Store) NewClient() *Client {
	c := &Client{
		s:       s,
		kernel:  s.kernel,
		cluster: s.name,
		nonce:   clientNonce(),
	}
	c.topoNodes.Store(int64(s.opts.Nodes))
	c.topoRepl.Store(int64(s.opts.Replication))
	c.wireObs(s.opts.Group.Obs)
	return c
}

// DialOptions configures Dial.
type DialOptions struct {
	// Node is the entry node's placement slot: requests enter the store at
	// NodeAddr(cluster, Node). Ignored when Addr is set.
	Node int
	// Addr overrides Node with an explicit entry address — any node's
	// NodeAddr, or any address answering the kv access protocol.
	Addr amoeba.Addr
	// Anycast enters the store through its store-wide anycast address
	// (StoreAddr) instead of a specific node: every node's Service
	// registers it, so the client needs nothing but the store name — FLIP
	// locates whichever node answers, and retransmissions re-locate a
	// survivor when that node dies. Overrides Node; Addr still wins.
	Anycast bool
	// Shards, when non-zero, gives the client ring knowledge: requests go
	// straight to the owning shard's well-known address (one hop) instead
	// of through the entry node. It should match the store's bootstrap
	// shard count; a stale value still works — the service answers
	// misroutes with a ForwardRequest and attaches its routing table, so
	// the client converges after one hop.
	Shards int
	// Obs wires the client into an observability hub: access-path latency
	// histograms, op counters, and trace spans for sampled command ids.
	// Nil (the default) is the no-op sink.
	Obs *obs.Hub
}

// Dial returns a client that reaches the named store over RPC only: it holds
// nothing but an entry address (and, optionally, ring knowledge), yet serves
// the whole keyspace — the entry node proxies or forwards whatever it does
// not host. The kernel is the caller's network attachment; it need not host
// any part of the store.
func Dial(k *amoeba.Kernel, cluster string, o DialOptions) (*Client, error) {
	if k == nil {
		return nil, fmt.Errorf("kv: dialing %q: kernel is required", cluster)
	}
	c := &Client{
		kernel:  k,
		cluster: cluster,
		entry:   o.Addr,
		anycast: o.Anycast,
		nonce:   clientNonce(),
	}
	if c.entry == 0 {
		if o.Anycast {
			c.entry = StoreAddr(cluster)
		} else {
			c.entry = NodeAddr(cluster, o.Node)
		}
	}
	if o.Shards > 0 {
		c.rt = Routing{Epoch: 0, Shards: o.Shards, VNodes: defaultVirtualNodes}
		c.cring = c.rt.ring(cluster)
	}
	c.wireObs(o.Obs)
	return c, nil
}

// clientNonce draws the random base for this client's command ids.
func clientNonce() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("kv: reading client nonce: %v", err))
	}
	return binary.BigEndian.Uint64(b[:])
}

// nextID returns a command id unique across clients and operations: a random
// 64-bit client nonce perturbed by a per-client counter.
func (c *Client) nextID() uint64 { return c.nonce + c.seq.Add(1) }

// routingRing returns the routing view the client targets requests with:
// the bound store's live table, the Dial'd client's cached table, or
// (nil, zero table) for ring-less clients.
func (c *Client) routingRing() (*ring, Routing) {
	if c.s != nil {
		return c.s.routingRing()
	}
	c.rtMu.RLock()
	defer c.rtMu.RUnlock()
	return c.cring, c.rt
}

// adoptRouting installs a newer table a response carried (Dial'd clients
// with ring knowledge; bound clients follow their store instead).
func (c *Client) adoptRouting(rt Routing) {
	if c.s != nil || rt.Shards <= 0 {
		return
	}
	c.rtMu.Lock()
	if c.cring != nil && rt.Epoch > c.rt.Epoch {
		c.rt = rt
		c.cring = rt.ring(c.cluster)
		c.rtUpdates.Add(1)
	}
	c.rtMu.Unlock()
}

// Routing returns the table the client currently routes by (zero value for
// ring-less clients).
func (c *Client) Routing() Routing {
	_, rt := c.routingRing()
	return rt
}

// Close releases the client's RPC resources, if any were created. Operations
// that never left the node need no Close.
func (c *Client) Close() {
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	c.closed = true
	for shard, cl := range c.rpcPool {
		cl.Close()
		delete(c.rpcPool, shard)
	}
	if c.obsUnreg != nil {
		c.obsUnreg()
		c.obsUnreg = nil
	}
}

// rpcClient returns shard's pooled RPC client, creating it on first use
// (shard -1: the entry path's connection).
func (c *Client) rpcClient(shard int) (*amoeba.RPCClient, error) {
	if shard < 0 {
		shard = -1
	}
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("kv: client closed")
	}
	if c.rpcPool == nil {
		c.rpcPool = make(map[int]*amoeba.RPCClient)
	}
	if cl, ok := c.rpcPool[shard]; ok {
		return cl, nil
	}
	cl, err := c.kernel.NewRPCClient()
	if err != nil {
		return nil, fmt.Errorf("kv: creating RPC client: %w", err)
	}
	c.rpcPool[shard] = cl
	return cl, nil
}

// sleepCtx pauses between retries of operations held by a frozen range.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// retryMoved runs op until it answers anything but errMoved, pausing between
// tries while the handoff that froze or moved its range completes; each try
// re-splits the request under the routing table of the moment.
func retryMoved(ctx context.Context, op func() (*Response, error)) (*Response, error) {
	for {
		resp, err := op()
		if !errors.Is(err, errMoved) {
			return resp, err
		}
		if err := sleepCtx(ctx, movedRetryDelay); err != nil {
			return nil, err
		}
	}
}

// --- The generic entry point -------------------------------------------------

// Do executes one access-protocol request: the single entry every public
// method, the amoeba-kv daemon, and the Service proxy route through. Command
// ids are assigned here if the request does not carry them. A ReqGet whose
// keys span shards runs as a read-only transaction, so the values form one
// atomic snapshot; a multi-shard ReqBatchPut is split by the routing table,
// each part over its own best path. Operations that land on a range
// mid-handoff are held and retried internally until the epoch flips — the
// ids make the retries exactly-once.
//
// The caller's Request is never modified: ids assigned for one execution
// live on an internal copy, so a Request value can be rebuilt or reused
// without a stale id silently deduplicating the next operation away.
func (c *Client) Do(ctx context.Context, caller *Request) (*Response, error) {
	cp := *caller
	req := &cp
	if req.ID == 0 {
		req.ID = c.nextID()
	}
	switch req.Op {
	case ReqPut, ReqDelete, ReqCAS:
		c.tracer.Addf(req.ID, "submitted op=%d key=%q", req.Op, req.Key)
		resp, err := c.doShard(ctx, c.shardFor(req.Key), req)
		if err != nil {
			c.tracer.Addf(req.ID, "failed: %v", err)
		} else {
			c.tracer.Add(req.ID, "replied")
		}
		return resp, err
	case ReqGet:
		if len(req.Keys) == 0 {
			return nil, fmt.Errorf("kv: get of zero keys")
		}
		// Invite lease serving: a bound client knows whether its store
		// grants leases; a Dial'd client cannot know, and the flag is free
		// when the server holds none. Not combined with stale reads — the
		// staleness bound is the weaker, cheaper contract.
		if req.Flags&flagStaleRead == 0 && (c.s == nil || c.s.leasesOn()) {
			req.Flags |= flagLeaseRead
		}
		c.tracer.Addf(req.ID, "submitted op=get keys=%d", len(req.Keys))
		resp, err := retryMoved(ctx, func() (*Response, error) { return c.doGet(ctx, req) })
		if err == nil {
			c.tracer.Add(req.ID, "replied")
		}
		return resp, err
	case ReqBatchPut:
		if len(req.Pairs) == 0 {
			return &Response{OK: true}, nil
		}
		if len(req.IDs) != len(req.Pairs) {
			req.IDs = make([]uint64, len(req.Pairs))
			for i := range req.IDs {
				req.IDs[i] = c.nextID()
			}
		}
		return retryMoved(ctx, func() (*Response, error) { return c.doBatchPut(ctx, req) })
	case ReqTxn:
		if r, _ := c.routingRing(); r == nil {
			// Ring-less client: the entry node's coordinator runs the 2PC.
			return c.remoteCall(ctx, -1, req)
		}
		return c.txnExecute(ctx, req)
	case ReqTxnPrepare:
		return retryMoved(ctx, func() (*Response, error) { return c.doTxnPrepare(ctx, req) })
	case ReqTxnResolve:
		// Routed by the representative key; a Moved answer retries in place
		// (doShard), chasing the portion across the epoch flip.
		return c.doShard(ctx, c.shardFor(req.Key), req)
	default:
		return nil, fmt.Errorf("kv: unknown request op %d", req.Op)
	}
}

// shardFor maps a key onto its owning shard, or -1 when the client has no
// ring knowledge (the entry node routes instead).
func (c *Client) shardFor(key string) int {
	r, _ := c.routingRing()
	if r == nil {
		return -1
	}
	return r.shard(key)
}

// doGet executes a read under the current routing table. Keys on one shard
// take that shard's read path (lease, bounded-stale or sequenced marker).
// Keys spanning shards run as a read-only transaction: every key locked at
// once and its value captured under the locks. Nothing orders two shard
// groups against each other, so separate per-shard reads could observe a
// cross-shard write half-applied. errMoved bubbles up from the single-shard
// path; the caller retries under the refreshed table.
func (c *Client) doGet(ctx context.Context, req *Request) (*Response, error) {
	r, _ := c.routingRing()
	if r == nil {
		return c.doShard(ctx, -1, req)
	}
	if parts := splitByShard(r, req); len(parts) == 1 {
		return c.doShard(ctx, parts[0].shard, req)
	}
	txn, err := c.txnExecute(ctx, &Request{Op: ReqTxn, ID: req.ID, Keys: req.Keys})
	if err != nil {
		return nil, err
	}
	if len(txn.Values) != len(req.Keys) || len(txn.Found) != len(req.Keys) {
		return nil, fmt.Errorf("kv: read-only transaction answered %d of %d requested keys", len(txn.Values), len(req.Keys))
	}
	return &Response{OK: true, Values: txn.Values, Found: txn.Found}, nil
}

// doBatchPut executes a bulk write, splitting multi-shard pair sets. Per-pair
// ids travel with their pairs, so however the batch is split — here, at the
// entry node, or after a forward — every replica deduplicates identically,
// and a re-split after an epoch flip re-executes only the pairs the first
// pass could not place.
func (c *Client) doBatchPut(ctx context.Context, req *Request) (*Response, error) {
	r, _ := c.routingRing()
	if r == nil {
		return c.doShard(ctx, -1, req)
	}
	parts := splitByShard(r, req)
	err := fanOut(len(parts), func(i int) error {
		_, err := c.doShard(ctx, parts[i].shard, parts[i].req)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Response{OK: true}, nil
}

// shardPart is one shard's portion of a request split by splitByShard.
type shardPart struct {
	shard int
	req   *Request
}

// eachKey calls fn with every element key of req in request order: its
// Keys, then the keys of its Pairs, Writes and Conds.
func eachKey(req *Request, fn func(key string)) {
	for _, k := range req.Keys {
		fn(k)
	}
	for _, p := range req.Pairs {
		fn(p.Key)
	}
	for _, w := range req.Writes {
		fn(w.Key)
	}
	for _, cc := range req.Conds {
		fn(cc.Key)
	}
}

// splitByShard assigns every element of req — each key, pair (with its id),
// write and cond — to the shard owning it under r, keeping request order
// within each part. Parts are listed in order of their first element, and
// each carries req's header (op, flags, budget, epoch, staleness bound, txn
// identity) as a fresh request: ID cleared, since two parts must not share
// one command id (Do assigns each its own), and no forwarded mark. A request
// that lands on one shard is its own only part, and a request with no
// elements routes by its Key.
func splitByShard(r *ring, req *Request) []shardPart {
	first, spans := -1, false
	eachKey(req, func(k string) {
		if s := r.shard(k); first < 0 {
			first = s
		} else if s != first {
			spans = true
		}
	})
	if first < 0 {
		first = r.shard(req.Key)
	}
	if !spans {
		return []shardPart{{first, req}}
	}
	var parts []shardPart
	part := func(key string) *Request {
		s := r.shard(key)
		for _, p := range parts {
			if p.shard == s {
				return p.req
			}
		}
		p := *req
		p.ID, p.Keys, p.Pairs, p.IDs, p.Writes, p.Conds = 0, nil, nil, nil, nil, nil
		p.Flags &^= flagForwarded
		parts = append(parts, shardPart{s, &p})
		return &p
	}
	for _, k := range req.Keys {
		p := part(k)
		p.Keys = append(p.Keys, k)
	}
	for i, pr := range req.Pairs {
		p := part(pr.Key)
		p.Pairs = append(p.Pairs, pr)
		p.IDs = append(p.IDs, req.IDs[i])
	}
	for _, w := range req.Writes {
		p := part(w.Key)
		p.Writes = append(p.Writes, w)
	}
	for _, cc := range req.Conds {
		p := part(cc.Key)
		p.Conds = append(p.Conds, cc)
	}
	return parts
}

// fanOut runs run(0..n-1) in parallel (a single part runs inline) and waits
// for all of them. The first error to arrive wins, except that a real error
// beats errMoved: the callers' retry loops only help the moved case and must
// not mask a persistent failure.
func fanOut(n int, run func(i int) error) error {
	if n == 1 {
		return run(0)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- run(i) }(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && (first == nil || errors.Is(first, errMoved) && !errors.Is(err, errMoved)) {
			first = err
		}
	}
	return first
}

// doShard executes a single-shard request (shard -1: unknown, entry decides)
// over the best available path. A Moved outcome on the local path — the key
// range is frozen mid-handoff or flipped to a new owner — re-resolves the
// shard and retries single-key ops in place; multi-element ops bubble
// errMoved up for a full re-split.
func (c *Client) doShard(ctx context.Context, shard int, req *Request) (*Response, error) {
	for {
		if c.s == nil || shard < 0 || c.s.Replica(shard) == nil {
			// A shard this node SHOULD host but does not yet is being
			// opened by the topology worker (a split in flight): wait for
			// the local replica instead of assuming a remote owner.
			if c.s != nil && shard >= 0 && c.s.expectsShard(shard) && !c.s.isClosed() {
				if req.Op == ReqGet || req.Op == ReqBatchPut || req.Op == ReqTxnPrepare {
					return nil, errMoved // re-split at the Do level
				}
				if err := sleepCtx(ctx, movedRetryDelay); err != nil {
					return nil, err
				}
				shard = c.shardFor(req.Key)
				continue
			}
			return c.remoteCall(ctx, shard, req)
		}
		if req.Op == ReqGet {
			if resp, ok := c.localFastRead(shard, req); ok {
				return resp, nil
			}
		}
		c.localOps.Add(1)
		_, rt := c.routingRing()
		req.Epoch = rt.Epoch
		var t0 time.Time
		if c.localH != nil {
			t0 = time.Now()
		}
		resp, err := c.s.execLocal(ctx, shard, req)
		if !errors.Is(err, errMoved) {
			if err == nil && c.localH != nil {
				c.localH.Observe(time.Since(t0))
			}
			return resp, err
		}
		c.tracer.Addf(req.ID, "moved at shard %d, retrying", shard)
		if req.Op == ReqGet || req.Op == ReqBatchPut || req.Op == ReqTxnPrepare {
			return nil, err // re-split at the Do level
		}
		if err := sleepCtx(ctx, movedRetryDelay); err != nil {
			return nil, err
		}
		shard = c.shardFor(req.Key)
	}
}

// localFastRead tries the read shortcuts against this node's replica of
// shard: a bounded-stale read when the request permits one, then a
// lease-covered linearizable read. False means no shortcut applies — the
// replica holds no valid lease (or freshness bound), or a key is frozen or
// locked — and the caller runs the sequenced read marker as before.
func (c *Client) localFastRead(shard int, req *Request) (*Response, bool) {
	var t0 time.Time
	if c.localH != nil {
		t0 = time.Now()
	}
	if req.Flags&flagStaleRead != 0 && req.MaxStale > 0 {
		if resp, ok := c.s.staleGet(shard, req.Keys, req.MaxStale); ok {
			c.localOps.Add(1)
			c.staleReads.Add(1)
			if c.localH != nil {
				c.localH.Observe(time.Since(t0))
			}
			c.tracer.Addf(req.ID, "served locally at staleness ≤%v", resp.StaleFor)
			return resp, true
		}
	}
	// A lease read trivially satisfies a staleness bound (it is current),
	// so stale requests may ride it too when the bound path fails.
	if req.Flags&(flagLeaseRead|flagStaleRead) != 0 && c.s.leasesOn() {
		if resp, ok := c.s.leaseGet(shard, req.Keys); ok {
			c.localOps.Add(1)
			c.leaseReads.Add(1)
			if c.localH != nil {
				c.localH.Observe(time.Since(t0))
			}
			c.tracer.Add(req.ID, "served locally under lease")
			return resp, true
		}
	}
	return nil, false
}

// remoteCall sends a request over RPC, retrying across targets while the
// context allows: the shard's well-known address first (when the routing is
// known), then the entry node, then the store-wide anycast entry. Timeouts
// alternate targets — a shard address mid-failover re-locates to a surviving
// host (the RPC layer forgets silent routes), and an entry node can always
// forward. Command ids make the retries exactly-once, and a response from a
// node at a different routing epoch carries the new table, which the client
// adopts before any further routing.
func (c *Client) remoteCall(ctx context.Context, shard int, req *Request) (*Response, error) {
	cl, err := c.rpcClient(shard)
	if err != nil {
		return nil, err
	}
	var targets []amoeba.Addr
	holder := c.readTarget(shard, req)
	if holder != 0 {
		targets = append(targets, holder)
	}
	if shard >= 0 {
		targets = append(targets, ShardAddr(c.cluster, shard))
	}
	if c.entry != 0 {
		targets = append(targets, c.entry)
	}
	if sa := StoreAddr(c.cluster); c.anycast && c.entry != sa {
		targets = append(targets, sa)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("kv: shard %d is not hosted on this node and the client has no remote path (start a kv.Service on the hosting nodes)", shard)
	}
	_, rt := c.routingRing()
	req.Epoch = rt.Epoch
	// Without a caller deadline, bound the attempts so a store with no
	// services running fails with a clear error instead of spinning.
	attempts := 8
	if _, ok := ctx.Deadline(); ok {
		attempts = 1 << 30
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if err := ctx.Err(); err != nil {
			return nil, c.remoteErr(shard, err)
		}
		if d, ok := ctx.Deadline(); ok {
			req.Budget = time.Until(d)
			if req.Budget <= 0 {
				return nil, c.remoteErr(shard, context.DeadlineExceeded)
			}
		}
		target := targets[try%len(targets)]
		c.remoteOps.Add(1)
		// Direct = the shard's own well-known address or a steered lease
		// holder (one hop); anything else enters through a proxy node that
		// may forward.
		direct := shard >= 0 && target == ShardAddr(c.cluster, shard) ||
			holder != 0 && target == holder
		pathH := c.fwdH
		if direct {
			pathH = c.directH
		}
		if direct {
			c.tracer.Addf(req.ID, "sent direct to shard %d", shard)
		} else {
			c.tracer.Addf(req.ID, "sent via entry %v", target)
		}
		var t0 time.Time
		if pathH != nil {
			t0 = time.Now()
		}
		reply, err := cl.Call(ctx, target, EncodeRequest(req))
		if err != nil {
			lastErr = err
			if errors.Is(err, amoeba.ErrRPCTimeout) {
				continue // next target (or the same one, re-located)
			}
			return nil, c.remoteErr(shard, err)
		}
		resp, err := DecodeResponse(reply)
		if err != nil {
			return nil, c.remoteErr(shard, err)
		}
		if pathH != nil {
			pathH.Observe(time.Since(t0))
		}
		if resp.Routing != nil {
			c.adoptRouting(*resp.Routing)
		}
		if resp.Nodes > 0 {
			// Learn the topology: with it, subsequent lease reads steer
			// straight at the nodes hosting each shard.
			c.topoNodes.Store(int64(resp.Nodes))
			c.topoRepl.Store(int64(resp.Replication))
		}
		if resp.Err != "" {
			return nil, fmt.Errorf("kv: remote: %s", resp.Err)
		}
		switch resp.ReadPath {
		case ReadLease:
			c.leaseReads.Add(1)
		case ReadStale:
			c.staleReads.Add(1)
		}
		// Trust nothing about arity: well-known addresses are reachable by
		// any process on the network, and a short reply must surface as an
		// error, not an index panic in the caller.
		if req.Op == ReqGet && (len(resp.Values) != len(req.Keys) || len(resp.Found) != len(req.Keys)) {
			return nil, c.remoteErr(shard, fmt.Errorf("kv: remote answered %d of %d requested keys", len(resp.Values), len(req.Keys)))
		}
		return resp, nil
	}
	return nil, c.remoteErr(shard, lastErr)
}

// readTarget picks the node a flagged read should try first: one of the
// nodes hosting shard under the placement rule, rotated per read so a fleet
// of clients spreads its reads across every replica lease holder instead of
// converging on the shard's well-known address (whichever single host the
// RPC layer last located). Zero when steering does not apply — a write, an
// unflagged read, or topology not yet learned from a response.
func (c *Client) readTarget(shard int, req *Request) amoeba.Addr {
	if shard < 0 || req.Op != ReqGet || req.Flags&(flagLeaseRead|flagStaleRead) == 0 {
		return 0
	}
	nodes := int(c.topoNodes.Load())
	if nodes <= 1 {
		return 0
	}
	repl := int(c.topoRepl.Load())
	hosts := make([]int, 0, nodes)
	for j := 0; j < nodes; j++ {
		if hostsShard(shard, j, nodes, repl) {
			hosts = append(hosts, j)
		}
	}
	if len(hosts) == 0 {
		return 0
	}
	return NodeAddr(c.cluster, hosts[c.readSeq.Add(1)%uint64(len(hosts))])
}

func (c *Client) remoteErr(shard int, err error) error {
	if shard >= 0 {
		return fmt.Errorf("kv: shard %d (via RPC): %w", shard, err)
	}
	return fmt.Errorf("kv: via %v: %w", c.entry, err)
}

// --- The public operations ---------------------------------------------------

// Put stores key = val. When Put returns, the write is totally ordered on
// its shard and applied on the replica that served it.
func (c *Client) Put(ctx context.Context, key string, val []byte) error {
	_, err := c.Do(ctx, &Request{Op: ReqPut, Key: key, Val: val})
	return err
}

// Pair is one key/value pair for BatchPut.
type Pair struct {
	Key string
	Val []byte
}

// BatchPut writes several pairs as one coalesced burst: pairs are grouped by
// owning shard, each shard's writes are submitted together (the group layer
// packs them into batch ordering requests, paying the sequencer's
// per-request cost once per batch), and the per-shard bursts run in
// parallel — locally or across the RPC proxy. When BatchPut returns nil,
// every write is totally ordered on its shard. Writes to one shard apply in
// slice order; ordering across shards is independent, as for any multi-shard
// operation.
func (c *Client) BatchPut(ctx context.Context, pairs []Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	_, err := c.Do(ctx, &Request{Op: ReqBatchPut, Pairs: pairs})
	return err
}

// Delete removes key, reporting whether it existed at the delete's position
// in the total order.
func (c *Client) Delete(ctx context.Context, key string) (bool, error) {
	resp, err := c.Do(ctx, &Request{Op: ReqDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// CAS atomically replaces key's value with val if its current value equals
// expect. expect == nil means "key must be absent" (atomic create); to
// compare against a stored empty value, pass a non-nil empty slice. The
// outcome is decided by the shard's total order, so concurrent CAS calls on
// one key serialise identically on every node — and retries are deduplicated
// by command id, so a CAS never observes its own first execution.
func (c *Client) CAS(ctx context.Context, key string, expect, val []byte) (bool, error) {
	resp, err := c.Do(ctx, &Request{Op: ReqCAS, Key: key,
		ExpectPresent: expect != nil, Expect: expect, Val: val})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// Get performs a sequenced (linearizable) read: a read marker travels the
// shard's total order and the returned value is the one at the marker's
// position, identical at every node — whichever access path served it. It
// reports false if the key is absent.
func (c *Client) Get(ctx context.Context, key string) ([]byte, bool, error) {
	resp, err := c.Do(ctx, &Request{Op: ReqGet, Keys: []string{key}})
	if err != nil {
		return nil, false, err
	}
	return resp.Values[0], resp.Found[0], nil
}

// StaleGet reads key accepting results up to maxStale behind the total
// order — the opt-in follower read. Any replica that has heard a recent
// sequencer tick serves it from local state with no group send, so it is the
// read that survives lease churn and scales with the replica count. The
// returned staleness is the proven bound the serving state satisfied (zero
// when the read was served fresh — under a lease or by the sequenced marker,
// the fallback when no replica can prove the bound). maxStale <= 0 degrades
// to a plain linearizable Get.
func (c *Client) StaleGet(ctx context.Context, key string, maxStale time.Duration) ([]byte, bool, time.Duration, error) {
	if maxStale <= 0 {
		v, found, err := c.Get(ctx, key)
		return v, found, 0, err
	}
	resp, err := c.Do(ctx, &Request{Op: ReqGet, Flags: flagStaleRead, MaxStale: maxStale, Keys: []string{key}})
	if err != nil {
		return nil, false, 0, err
	}
	return resp.Values[0], resp.Found[0], resp.StaleFor, nil
}

// copyVal detaches a value from the state machine's storage: callers own
// what they get back, and mutating it must not corrupt the local replica.
func copyVal(v []byte) []byte {
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// LocalGet reads key from this node's replica without any network traffic —
// the fast path for read-heavy workloads. The value reflects every command
// this node has applied, which may trail the total order by in-flight
// messages; this client's own completed operations are always visible. It
// reports false for keys whose shard this node does not host — including
// every key on a Dial'd client, which has no local replicas at all (use
// Store.HostsShard to tell the cases apart, or Get for a read that follows
// the proxy).
func (c *Client) LocalGet(key string) ([]byte, bool) {
	if c.s == nil {
		return nil, false
	}
	r := c.s.Replica(c.s.ShardFor(key))
	if r == nil {
		return nil, false
	}
	var (
		val   []byte
		found bool
	)
	r.Read(func(sm shared.StateMachine) {
		val, found = sm.(*mapSM).items[key]
	})
	return copyVal(val), found
}

// MGet performs a consistent multi-key read: the result maps each found key
// to its value (absent keys omitted), and the combined view is an atomic
// snapshot — no concurrent transaction or batch is ever observed
// half-applied. Keys on one shard are served by a single read at one point
// in that shard's order; keys spanning shards run as a read-only
// transaction (every key briefly locked, values captured while all locks
// are held — see Do and txn.go).
func (c *Client) MGet(ctx context.Context, keys ...string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	resp, err := c.Do(ctx, &Request{Op: ReqGet, Keys: keys})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	for i, k := range keys {
		if resp.Found[i] {
			out[k] = resp.Values[i]
		}
	}
	return out, nil
}

// --- Local execution (the in-process fast path) ------------------------------

// execLocal runs a single-shard request against this node's replica,
// translating it into deduplicated shard commands. It is the shared
// execution path of node-bound clients and the Service. It returns errMoved
// when the replica does not serve (all of) the request's keys at the
// command's position in the total order — mid-handoff freeze or a completed
// flip — and the caller re-resolves and retries.
func (s *Store) execLocal(ctx context.Context, shard int, req *Request) (*Response, error) {
	// Replicas drop a command they cannot decode, so do would wait forever
	// on an op that never travels a shard's order.
	if req.Op < ReqGet || req.Op > ReqTxnResolve {
		return nil, fmt.Errorf("kv: unknown request op %d", req.Op)
	}
	ids, cmds := []uint64{req.ID}, [][]byte{nil}
	if req.Op == ReqBatchPut {
		ids, cmds = req.IDs, make([][]byte, len(req.Pairs))
		for i, p := range req.Pairs {
			cmds[i] = encodeCommand(&Request{Op: ReqPut, ID: req.IDs[i], Key: p.Key, Val: p.Val})
		}
	} else {
		cmds[0] = encodeCommand(req)
	}
	res, err := s.do(ctx, shard, ids, cmds...)
	if err != nil {
		return nil, err
	}
	out := &Response{OK: res.OK, TxnState: res.TxnState, Conflict: res.Conflict, CondFailed: res.CondFailed,
		Found: append([]bool(nil), res.Found...)}
	if res.Values != nil {
		out.Values = make([][]byte, len(res.Values))
		for i, v := range res.Values {
			out.Values[i] = copyVal(v)
		}
	}
	return out, nil
}

// do submits cmds, one per id, to shard as one burst and waits until every
// result lands in the local replica's result window — i.e. until the
// commands have been totally ordered AND applied locally, which gives
// read-your-writes even for LocalGet. It returns the first command's result.
// If any command answered Moved (its range is frozen mid-handoff, or a batch
// straddled an epoch flip), do returns errMoved for the caller to re-route;
// ids deduplicate, so only the moved commands re-execute.
//
// If the local replica stops mid-operation (expelled by a recovery this node
// missed), do retries against the replacement the store's self-heal swaps
// in. Retrying is safe: commands are deduplicated by id in the replicated
// state machine, and if the first attempt did commit, the rejoined replica's
// transferred state already holds its result.
func (s *Store) do(ctx context.Context, shard int, ids []uint64, cmds ...[]byte) (result, error) {
	for {
		r := s.Replica(shard)
		if r == nil {
			return result{}, fmt.Errorf("kv: shard %d is not hosted on this node (replication %d)", shard, s.opts.Replication)
		}
		var err error
		if len(cmds) == 1 {
			err = r.Submit(ctx, cmds[0])
		} else {
			err = r.SubmitBatch(ctx, cmds)
		}
		if err == nil {
			var first result
			moved := false
			err = r.Wait(ctx, func(sm shared.StateMachine) bool {
				m := sm.(*mapSM)
				moved = false
				for i, id := range ids {
					res, ok := m.resultOf(id)
					if !ok {
						return false
					}
					if i == 0 {
						first = res
					}
					moved = moved || res.Moved
				}
				return true
			})
			if err == nil {
				if moved {
					return first, errMoved
				}
				return first, nil
			}
		}
		// ErrStopped: the replica stopped under us. ErrNotMember: an
		// in-flight Submit was aborted by the expulsion itself. Both mean
		// "this replica is gone"; wait for the self-heal watcher to swap
		// in a fresh one — unless the whole store is closed.
		if !errors.Is(err, shared.ErrStopped) && !errors.Is(err, amoeba.ErrNotMember) {
			return result{}, fmt.Errorf("kv: shard %d: %w", shard, err)
		}
		if s.isClosed() {
			return result{}, fmt.Errorf("kv: shard %d: %w", shard, shared.ErrStopped)
		}
		select {
		case <-ctx.Done():
			return result{}, fmt.Errorf("kv: shard %d: %w", shard, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
