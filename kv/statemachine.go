package kv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"amoeba/obs"
	"amoeba/shared"
)

// defaultResultWindow bounds the replicated result table. A result is
// evicted after this many further commands apply, so a client has that much
// slack between its command applying locally and its Wait observing the
// result — far more than any realistic scheduling delay. It is also the
// exactly-once horizon: a retry that arrives after this many further
// commands on its shard (sequenced reads included) re-executes.
const defaultResultWindow = 65536

// result is the replicated outcome of one command, keyed by command id. It
// is part of the state machine (every replica computes the identical table),
// which is what lets a client read its CAS outcome or sequenced-get values
// from its local replica.
type result struct {
	// OK reports mutation success: CAS swapped, Delete found the key.
	OK bool `json:"ok"`
	// Values and Found carry sequenced-read results, aligned with the
	// command's key list.
	Values [][]byte `json:"values,omitempty"`
	Found  []bool   `json:"found,omitempty"`
	// Key is the mutated key (write ops only). It lets a resharding
	// migrate the result alongside the data: a command retried after the
	// epoch flip routes to the key's NEW owner, and only if the result
	// moved with the key does the dedup window still answer it there —
	// exactly-once across reshardings. (Sequenced reads carry no key;
	// re-executing a read under a retry is just a later linearizable
	// read.)
	Key string `json:"key,omitempty"`
	// Moved reports that the command touched a key this shard does not
	// serve at the command's position in the total order: either the key
	// range is frozen mid-handoff (owned now, but moving under the pending
	// routing) or it already moved (a stale client's routing lags the
	// epoch). The command was NOT executed; the caller re-resolves the
	// owner and retries — and because a Moved result does not arm the
	// dedup suppression, the retried id executes normally wherever it
	// lands. Ordinary writes to a prepare-locked key answer Moved too: the
	// command did not execute and the client retries after the lock clears.
	Moved bool `json:"moved,omitempty"`
	// TxnState, Conflict, and CondFailed answer the txn ops (see txn.go):
	// the portion's state after the command, a prepare that lost its keys
	// to another live transaction, and a prepare whose conditions failed.
	TxnState   byte `json:"txn,omitempty"`
	Conflict   bool `json:"conflict,omitempty"`
	CondFailed bool `json:"condFailed,omitempty"`
}

// Transaction portion states (see txn.go for the 2PC protocol).
const (
	txnStatePrepared  byte = 1
	txnStateCommitted byte = 2
	txnStateAborted   byte = 3
)

// txnTombstoneWindow bounds resolved transaction portions kept for
// idempotent re-answers, FIFO like the result window. A transaction
// re-driven after its tombstones evicted everywhere is presumed resolved —
// the same horizon the result window already imposes on plain retries.
const txnTombstoneWindow = 8192

// txnPortion is one shard's slice of a cross-shard transaction: the local
// reads (with the values captured when the prepare sequenced), writes held
// back until the decision, and conditions. It is replicated state — created
// by ReqTxnPrepare, resolved by ReqTxnResolve, carried in snapshots and
// migrated with its keys during resharding. After resolution the portion
// stays as a tombstone (writes and conds trimmed) so re-driven prepares and
// resolves re-answer the decision instead of re-executing.
type txnPortion struct {
	TxnID   uint64     `json:"id"`
	HomeKey string     `json:"home"`
	AllKeys []string   `json:"all"`
	State   byte       `json:"state"`
	Reads   []string   `json:"reads,omitempty"`
	Writes  []TxnWrite `json:"writes,omitempty"`
	Conds   []TxnCond  `json:"conds,omitempty"`
	Values  [][]byte   `json:"values,omitempty"`
	Found   []bool     `json:"found,omitempty"`
}

// localKeys is the deduplicated union of the portion's read, write, and
// condition keys — the keys this shard locks for the transaction.
func (p *txnPortion) localKeys() []string {
	seen := make(map[string]bool, len(p.Reads)+len(p.Writes)+len(p.Conds))
	out := make([]string, 0, len(p.Reads)+len(p.Writes)+len(p.Conds))
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for _, k := range p.Reads {
		add(k)
	}
	for _, w := range p.Writes {
		add(w.Key)
	}
	for _, c := range p.Conds {
		add(c.Key)
	}
	return out
}

func (p *txnPortion) clone() *txnPortion {
	cp := *p
	cp.AllKeys = append([]string(nil), p.AllKeys...)
	cp.Reads = append([]string(nil), p.Reads...)
	cp.Writes = append([]TxnWrite(nil), p.Writes...)
	cp.Conds = append([]TxnCond(nil), p.Conds...)
	cp.Values = append([][]byte(nil), p.Values...)
	cp.Found = append([]bool(nil), p.Found...)
	return &cp
}

// mergeReads folds t's captured reads into p (keys p lacks only).
func (p *txnPortion) mergeReads(t *txnPortion) {
	have := make(map[string]bool, len(p.Reads))
	for _, k := range p.Reads {
		have[k] = true
	}
	for i, k := range t.Reads {
		if have[k] {
			continue
		}
		have[k] = true
		p.Reads = append(p.Reads, k)
		var v []byte
		var f bool
		if i < len(t.Values) {
			v = t.Values[i]
		}
		if i < len(t.Found) {
			f = t.Found[i]
		}
		p.Values = append(p.Values, v)
		p.Found = append(p.Found, f)
	}
}

// mergeOps folds t's reads, writes, and conds into p (same transaction,
// disjoint or identical per key — dedup by key).
func (p *txnPortion) mergeOps(t *txnPortion) {
	p.mergeReads(t)
	haveW := make(map[string]bool, len(p.Writes))
	for _, w := range p.Writes {
		haveW[w.Key] = true
	}
	for _, w := range t.Writes {
		if !haveW[w.Key] {
			haveW[w.Key] = true
			p.Writes = append(p.Writes, w)
		}
	}
	haveC := make(map[string]bool, len(p.Conds))
	for _, c := range p.Conds {
		haveC[c.Key] = true
	}
	for _, c := range t.Conds {
		if !haveC[c.Key] {
			haveC[c.Key] = true
			p.Conds = append(p.Conds, c)
		}
	}
}

// subPortion extracts the slice of p covering keys, for migration to the
// keys' new owner.
func (p *txnPortion) subPortion(keys []string) *txnPortion {
	in := make(map[string]bool, len(keys))
	for _, k := range keys {
		in[k] = true
	}
	sub := &txnPortion{TxnID: p.TxnID, HomeKey: p.HomeKey, AllKeys: p.AllKeys, State: p.State}
	for i, k := range p.Reads {
		if !in[k] {
			continue
		}
		sub.Reads = append(sub.Reads, k)
		var v []byte
		var f bool
		if i < len(p.Values) {
			v = p.Values[i]
		}
		if i < len(p.Found) {
			f = p.Found[i]
		}
		sub.Values = append(sub.Values, v)
		sub.Found = append(sub.Found, f)
	}
	for _, w := range p.Writes {
		if in[w.Key] {
			sub.Writes = append(sub.Writes, w)
		}
	}
	for _, c := range p.Conds {
		if in[c.Key] {
			sub.Conds = append(sub.Conds, c)
		}
	}
	return sub
}

// mapSM is the per-shard replicated state machine: the key-value items, a
// bounded FIFO window of command results, and the routing table the shard
// operates under. Apply is deterministic; shared serialises all access.
type mapSM struct {
	items   map[string][]byte
	results map[uint64]windowed
	order   []uint64 // result ids, oldest first, for deterministic eviction
	window  int
	// dedupSum is the audit digest of the result window, kept
	// incrementally: the wrapping sum of every entry's fold, added on
	// insert and subtracted on eviction, so digesting the window is O(1)
	// instead of a 64Ki-entry walk per audit.
	dedupSum uint64

	// Transaction state (replicated): portions keyed by txn id, the FIFO
	// eviction queue of RESOLVED portion ids (prepared portions never
	// evict), and the prepare locks derived from the prepared portions.
	txns     map[uint64]*txnPortion
	txnOrder []uint64
	locks    map[string]uint64 // key -> txn id holding its prepare lock

	// lockSeen is node-local (never replicated): when this replica last saw
	// each prepared portion, feeding the in-doubt recovery janitor's age
	// check. Stamped at prepare apply, restore, and import.
	lockSeen map[uint64]time.Time

	// Identity (constructor-set, not part of the replicated state: every
	// replica of one shard is built with the same values). initRouting is
	// the constructor's routing table, kept so Restore(nil) can reset to
	// the same state a fresh replica boots with.
	store       string
	shard       int
	initRouting Routing
	// onRouting, when non-nil, is nudged after any apply or restore that
	// changed routing or pending — the hook the hosting Store uses to keep
	// its node-local routing view current. It runs under the replica lock
	// and must not call back into the replica.
	onRouting func(shard int, cur Routing, pending Routing, hasPending bool)

	// routing is the epoch table this shard currently serves under;
	// pending, when non-nil, is the next table a migrate-begin announced
	// (the shard is mid-handoff: keys moving away are frozen). Both are
	// replicated state, changed only by sequenced migration commands.
	routing Routing
	pending *Routing
	// curRing/pendRing are derived from routing/pending (deterministic
	// function of the replicated state; rebuilt on restore).
	curRing  *ring
	pendRing *ring

	// Observability (node-local, never replicated; nil = no-op). tracer
	// stamps "applied@seq" spans for sampled command ids, flight records
	// migrate phase transitions; seq is the sequence number of the command
	// currently applying, set by ApplySeq for the duration of one Apply.
	tracer *obs.Tracer
	flight *obs.Recorder
	seq    uint32
	// onAudit, when non-nil, receives the digest this replica computed for
	// each applied audit command (see audit.go). Node-local like onRouting:
	// it runs under the replica lock and must not call back into replicas.
	onAudit func(shard int, d obs.Digest)
}

// windowed is one result-window entry: the result plus its audit fold
// (resultSum in audit.go), which is derived from the result — rebuilt on
// restore, never snapshotted.
type windowed struct {
	result
	sum uint64
}

var _ shared.StateMachine = (*mapSM)(nil)
var _ shared.SeqApplier = (*mapSM)(nil)

func newMapSM(store string, shard int, rt Routing, window int, onRouting func(int, Routing, Routing, bool)) *mapSM {
	s := &mapSM{
		items:       make(map[string][]byte),
		results:     make(map[uint64]windowed),
		window:      window,
		txns:        make(map[uint64]*txnPortion),
		locks:       make(map[string]uint64),
		lockSeen:    make(map[uint64]time.Time),
		store:       store,
		shard:       shard,
		initRouting: rt,
		onRouting:   onRouting,
		routing:     rt,
	}
	if rt.Shards > 0 {
		s.curRing = rt.ring(store)
	}
	return s
}

func (s *mapSM) setResult(id uint64, r result) {
	if prev, dup := s.results[id]; dup {
		s.dedupSum -= prev.sum
	} else {
		s.order = append(s.order, id)
	}
	w := windowed{result: r, sum: resultSum(id, r)}
	s.results[id] = w
	s.dedupSum += w.sum
	for len(s.order) > s.window {
		old := s.order[0]
		s.dedupSum -= s.results[old].sum
		delete(s.results, old)
		s.order = s.order[1:]
	}
}

// resultOf returns command id's result, if it has applied and is still in
// the window.
func (s *mapSM) resultOf(id uint64) (result, bool) {
	w, ok := s.results[id]
	return w.result, ok
}

// serves reports whether this shard serves key at this point in the total
// order: the key must be owned under the current table AND not be mid-move
// under a pending one. A key moving away is frozen from migrate-begin until
// this shard's migrate-commit — reads too, so a moved key is never served
// stale from the source while the target may already have accepted a newer
// write (linearizability across the epoch flip).
func (s *mapSM) serves(key string) bool {
	if s.curRing == nil {
		return true // no routing installed: single-table legacy shard
	}
	if s.curRing.shard(key) != s.shard {
		return false
	}
	if s.pendRing != nil && s.pendRing.shard(key) != s.shard {
		return false
	}
	return true
}

// notifyRouting nudges the hosting store after a routing/pending change.
func (s *mapSM) notifyRouting() {
	if s.onRouting == nil {
		return
	}
	var pend Routing
	if s.pending != nil {
		pend = *s.pending
	}
	s.onRouting(s.shard, s.routing, pend, s.pending != nil)
}

// ApplySeq is Apply with the command's sequence number alongside — the
// shared.SeqApplier extension. The sequence number is not state: it only
// feeds the "applied@seq" trace span for sampled command ids.
func (s *mapSM) ApplySeq(seq uint32, cmd []byte) {
	s.seq = seq
	s.Apply(cmd)
	s.seq = 0
}

// Apply executes one committed command. Malformed commands are ignored (a
// byzantine client must not be able to diverge or crash the replicas), and a
// command whose id already has a real result is not re-executed: clients
// retry across replica swaps and routing epochs, and a retried CAS must not
// observe its own first execution. Moved results do not suppress the retry —
// the command never executed, and the total order decides afresh whether the
// shard serves the key by then.
func (s *mapSM) Apply(cmd []byte) {
	c, err := decodeCommand(cmd)
	if err != nil {
		return
	}
	if prev, done := s.results[c.ID]; done && !prev.Moved {
		s.tracer.Addf(c.ID, "dedup hit at shard %d (seq %d)", s.shard, s.seq)
		return
	}
	s.tracer.Addf(c.ID, "applied@seq %d op=%d shard=%d", s.seq, c.Op, s.shard)
	switch c.Op {
	case ReqPut:
		if !s.serves(c.Key) || s.locked(c.Key) {
			s.setResult(c.ID, result{Moved: true})
			return
		}
		s.items[c.Key] = c.Val
		s.setResult(c.ID, result{OK: true, Key: c.Key})
	case ReqDelete:
		if !s.serves(c.Key) || s.locked(c.Key) {
			s.setResult(c.ID, result{Moved: true})
			return
		}
		_, existed := s.items[c.Key]
		delete(s.items, c.Key)
		s.setResult(c.ID, result{OK: existed, Key: c.Key})
	case ReqCAS:
		if !s.serves(c.Key) || s.locked(c.Key) {
			s.setResult(c.ID, result{Moved: true})
			return
		}
		cur, present := s.items[c.Key]
		ok := present == c.ExpectPresent && (!present || string(cur) == string(c.Expect))
		if ok {
			s.items[c.Key] = c.Val
		}
		s.setResult(c.ID, result{OK: ok, Key: c.Key})
	case ReqGet:
		for _, k := range c.Keys {
			if !s.serves(k) || s.locked(k) {
				s.setResult(c.ID, result{Moved: true})
				return
			}
		}
		r := result{
			OK:     true,
			Values: make([][]byte, len(c.Keys)),
			Found:  make([]bool, len(c.Keys)),
		}
		for i, k := range c.Keys {
			if v, ok := s.items[k]; ok {
				r.Values[i] = v
				r.Found[i] = true
			}
		}
		s.setResult(c.ID, r)
	case opMigrateBegin:
		s.applyMigrateBegin(c)
	case opMigrateCommit:
		s.applyMigrateCommit(c)
	case opMigrateAbort:
		s.applyMigrateAbort(c)
	case opMigrateImport:
		s.applyMigrateImport(c)
	case ReqTxnPrepare:
		s.applyTxnPrepare(c)
	case ReqTxnResolve:
		s.applyTxnResolve(c)
	case opAudit:
		s.applyAudit(c)
	}
}

// locked reports whether key is held by a prepared transaction. Ordinary
// commands on a locked key answer Moved (not executed, retried by the
// client) — a write slipping between a transaction's prepare and its commit
// would break the transaction's atomicity (its conditions were checked and
// its reads captured at prepare; its writes land at resolve).
func (s *mapSM) locked(key string) bool {
	_, held := s.locks[key]
	return held
}

// touchLock stamps the node-local last-seen time for a prepared portion.
func (s *mapSM) touchLock(txnID uint64) {
	s.lockSeen[txnID] = time.Now()
}

// txnPrepareResultFor renders a prepare answer from a portion, aligning the
// captured read values to the REQUESTED read set (a merged or migrated
// portion may hold a superset).
func (s *mapSM) txnPrepareResultFor(p *txnPortion, reads []string) result {
	r := result{TxnState: p.State, OK: p.State == txnStatePrepared || p.State == txnStateCommitted}
	if len(reads) == 0 {
		return r
	}
	idx := make(map[string]int, len(p.Reads))
	for i, k := range p.Reads {
		idx[k] = i
	}
	r.Values = make([][]byte, len(reads))
	r.Found = make([]bool, len(reads))
	for i, k := range reads {
		if j, ok := idx[k]; ok {
			if j < len(p.Values) {
				r.Values[i] = p.Values[j]
			}
			if j < len(p.Found) {
				r.Found[i] = p.Found[j]
			}
		}
	}
	return r
}

// applyTxnPrepare locks this shard's slice of a transaction and captures its
// reads, all at one position in the total order. Prepares are idempotent and
// accretive: a re-drive after a routing flip may split the same attempt
// along different shard boundaries, so a request against an existing
// prepared portion merges its ops in (validating only the keys it adds)
// rather than demanding byte equality. A resolved portion answers its
// decision — a late prepare must never relock after the outcome.
func (s *mapSM) applyTxnPrepare(c command) {
	p := s.txns[c.TxnID]
	if p != nil && p.State != txnStatePrepared {
		s.setResult(c.ID, s.txnPrepareResultFor(p, c.Keys))
		return
	}
	resident := make(map[string]bool)
	if p != nil {
		for _, k := range p.localKeys() {
			resident[k] = true
		}
	}
	var fresh []string
	seen := make(map[string]bool)
	addFresh := func(k string) {
		if !resident[k] && !seen[k] {
			seen[k] = true
			fresh = append(fresh, k)
		}
	}
	for _, k := range c.Keys {
		addFresh(k)
	}
	for _, w := range c.Writes {
		addFresh(w.Key)
	}
	for _, cc := range c.Conds {
		addFresh(cc.Key)
	}
	for _, k := range fresh {
		if !s.serves(k) {
			s.setResult(c.ID, result{Moved: true})
			return
		}
	}
	for _, k := range fresh {
		if owner, held := s.locks[k]; held && owner != c.TxnID {
			s.setResult(c.ID, result{Conflict: true})
			return
		}
	}
	// Conditions for already-resident keys were checked when they first
	// prepared and their values cannot have changed since (the lock blocks
	// writes), so re-evaluating everything against items is equivalent.
	for _, cc := range c.Conds {
		cur, present := s.items[cc.Key]
		if present != cc.ExpectPresent || (present && !bytes.Equal(cur, cc.Expect)) {
			s.setResult(c.ID, result{CondFailed: true})
			return
		}
	}
	if p == nil {
		p = &txnPortion{TxnID: c.TxnID, HomeKey: c.HomeKey, AllKeys: c.AllKeys, State: txnStatePrepared}
		s.txns[c.TxnID] = p
		s.flight.Recordf(s.flightTag(), "txn %016x prepared: %d reads %d writes %d conds",
			c.TxnID, len(c.Keys), len(c.Writes), len(c.Conds))
	}
	haveRead := make(map[string]bool, len(p.Reads))
	for _, k := range p.Reads {
		haveRead[k] = true
	}
	for _, k := range c.Keys {
		if haveRead[k] {
			continue
		}
		haveRead[k] = true
		p.Reads = append(p.Reads, k)
		v, found := s.items[k]
		if found {
			p.Values = append(p.Values, append([]byte(nil), v...))
		} else {
			p.Values = append(p.Values, nil)
		}
		p.Found = append(p.Found, found)
	}
	p.mergeOps(&txnPortion{Writes: c.Writes, Conds: c.Conds})
	for _, k := range fresh {
		s.locks[k] = c.TxnID
	}
	s.touchLock(c.TxnID)
	s.setResult(c.ID, s.txnPrepareResultFor(p, c.Keys))
}

// resolvePortion applies the decision to a prepared portion: commit lands
// the held-back writes, abort discards them; either way the locks clear and
// the portion becomes a tombstone (payloads trimmed, reads kept for
// idempotent re-answers).
func (s *mapSM) resolvePortion(p *txnPortion, commit bool) {
	if p.State != txnStatePrepared {
		return
	}
	for _, k := range p.localKeys() {
		if s.locks[k] == p.TxnID {
			delete(s.locks, k)
		}
	}
	if commit {
		for _, w := range p.Writes {
			if w.Delete {
				delete(s.items, w.Key)
			} else {
				s.items[w.Key] = w.Val
			}
		}
		p.State = txnStateCommitted
	} else {
		p.State = txnStateAborted
	}
	p.Writes = nil
	p.Conds = nil
	delete(s.lockSeen, p.TxnID)
	s.txnOrder = append(s.txnOrder, p.TxnID)
	s.evictTxns()
	s.flight.Recordf(s.flightTag(), "txn %016x resolved: state=%d", p.TxnID, p.State)
}

// applyTxnResolve applies a commit/abort decision to this shard's portion.
// The home shard (owner of HomeKey) arbitrates: the first resolve to
// sequence against its prepared portion fixes the transaction's outcome,
// and every later resolve or prepare re-answers it. A portion whose keys
// are frozen mid-reshard answers Moved — the portion migrates with its keys
// and the decision chases it to the new owner, which is what guarantees a
// reshard serializes entirely before or after the commit.
func (s *mapSM) applyTxnResolve(c command) {
	if p := s.txns[c.TxnID]; p != nil {
		if p.State == txnStatePrepared {
			for _, k := range p.localKeys() {
				if !s.serves(k) {
					s.setResult(c.ID, result{Moved: true})
					return
				}
			}
			s.resolvePortion(p, c.Commit)
		}
		s.setResult(c.ID, result{OK: p.State == txnStateCommitted, TxnState: p.State})
		return
	}
	// No portion: this shard never saw the prepare, or already evicted the
	// tombstone. It must at least own one of the transaction's keys —
	// otherwise the decision belongs elsewhere (stale routing) and the
	// caller re-resolves.
	owned := s.curRing == nil
	for _, k := range c.AllKeys {
		if owned {
			break
		}
		owned = s.curRing.shard(k) == s.shard
	}
	if !owned {
		s.setResult(c.ID, result{Moved: true})
		return
	}
	if c.Commit {
		// Presumed resolved: a commit decision exists only if the prepare
		// phase finished everywhere, so re-answering success is safe even
		// past the tombstone horizon.
		s.setResult(c.ID, result{OK: true, TxnState: txnStateCommitted})
		return
	}
	// Abort with no portion: plant a fence so a straggling prepare re-drive
	// cannot lock keys after the decision (presumed abort).
	f := &txnPortion{TxnID: c.TxnID, HomeKey: c.HomeKey, AllKeys: c.AllKeys, State: txnStateAborted}
	s.txns[c.TxnID] = f
	s.txnOrder = append(s.txnOrder, c.TxnID)
	s.evictTxns()
	s.flight.Recordf(s.flightTag(), "txn %016x fenced aborted", c.TxnID)
	s.setResult(c.ID, result{TxnState: txnStateAborted})
}

// evictTxns trims resolved portions past the tombstone window.
func (s *mapSM) evictTxns() {
	for len(s.txnOrder) > txnTombstoneWindow {
		id := s.txnOrder[0]
		s.txnOrder = s.txnOrder[1:]
		if p, ok := s.txns[id]; ok && p.State != txnStatePrepared {
			delete(s.txns, id)
		}
	}
}

// applyMigrateBegin installs the pending routing table, freezing the key
// ranges that move away from this shard. Begins are idempotent, and a begin
// for an epoch the shard already reached (or passed) is a no-op — the retry
// of a completed handoff must not re-freeze anything.
func (s *mapSM) applyMigrateBegin(c command) {
	ok := false
	switch {
	case c.routing.Epoch <= s.routing.Epoch:
		// Already at (or past) that epoch: the handoff completed.
		ok = true
	case s.pending != nil && *s.pending == c.routing:
		ok = true // duplicate begin of the handoff in progress
	case s.pending == nil && c.routing.Epoch == s.routing.Epoch+1:
		rt := c.routing
		s.pending = &rt
		s.pendRing = rt.ring(s.store)
		ok = true
		s.flight.Recordf(s.flightTag(), "migrate begin: epoch %d -> %d (%d -> %d shards)",
			s.routing.Epoch, rt.Epoch, s.routing.Shards, rt.Shards)
		s.notifyRouting()
	}
	s.setResult(c.ID, result{OK: ok})
}

// flightTag labels this shard's flight-recorder events.
func (s *mapSM) flightTag() string {
	return fmt.Sprintf("kv/%s/%d", s.store, s.shard)
}

// applyMigrateCommit flips the shard to the new routing table: moved keys
// (exported to their new owners before the commit was sequenced) are
// deleted, the freeze lifts, and from this position in the total order the
// shard serves exactly the ranges the new table assigns it.
func (s *mapSM) applyMigrateCommit(c command) {
	if c.routing.Epoch <= s.routing.Epoch {
		s.setResult(c.ID, result{OK: true}) // duplicate commit
		return
	}
	s.routing = c.routing
	s.curRing = c.routing.ring(s.store)
	s.pending = nil
	s.pendRing = nil
	dropped := 0
	for k := range s.items {
		if s.curRing.shard(k) != s.shard {
			delete(s.items, k)
			dropped++
		}
	}
	// Transaction portions follow their keys: shrink each to the keys this
	// shard still owns (the moved slices were exported as sub-portions
	// before the commit sequenced) and drop portions with nothing left
	// here. Locks are rederived from what remains.
	for id, p := range s.txns {
		if p.State == txnStatePrepared {
			var keep []string
			for _, k := range p.localKeys() {
				if s.curRing.shard(k) == s.shard {
					keep = append(keep, k)
				}
			}
			if len(keep) == 0 {
				delete(s.txns, id)
				delete(s.lockSeen, id)
				continue
			}
			s.txns[id] = p.subPortion(keep)
			continue
		}
		anyOwned := false
		for _, k := range p.AllKeys {
			if s.curRing.shard(k) == s.shard {
				anyOwned = true
				break
			}
		}
		if !anyOwned {
			delete(s.txns, id) // txnOrder entry left behind; evict tolerates it
		}
	}
	s.locks = make(map[string]uint64)
	for id, p := range s.txns {
		if p.State == txnStatePrepared {
			for _, k := range p.localKeys() {
				s.locks[k] = id
			}
		}
	}
	s.flight.Recordf(s.flightTag(), "migrate commit: epoch %d, %d moved keys dropped, %d kept",
		c.routing.Epoch, dropped, len(s.items))
	s.setResult(c.ID, result{OK: true})
	s.notifyRouting()
}

// applyMigrateAbort rolls a pending handoff back: the freeze lifts and the
// shard keeps serving under its current table. Only the exact pending epoch
// can be aborted, and never after the shard committed it.
func (s *mapSM) applyMigrateAbort(c command) {
	ok := false
	if s.pending != nil && s.pending.Epoch == c.routing.Epoch {
		s.pending = nil
		s.pendRing = nil
		ok = true
		s.flight.Recordf(s.flightTag(), "migrate abort: epoch %d rolled back, serving epoch %d",
			c.routing.Epoch, s.routing.Epoch)
		s.notifyRouting()
	}
	s.setResult(c.ID, result{OK: ok})
}

// applyMigrateImport installs a chunk of keys (and the dedup results that
// travel with them) streamed out of a source shard. Imports are epoch-gated:
// they apply only while this shard has not yet committed the target epoch —
// after the flip clients may write the moved ranges here, and a late
// (re-driven) import must never overwrite a newer client write with the
// source's frozen value.
func (s *mapSM) applyMigrateImport(c command) {
	if s.routing.Epoch >= c.routing.Epoch {
		s.setResult(c.ID, result{Moved: true}) // late chunk: already flipped
		return
	}
	for _, p := range c.chunk.Pairs {
		s.items[p.Key] = p.Val
	}
	for _, r := range c.chunk.Results {
		s.setResult(r.ID, result{OK: r.OK, Key: r.Key})
	}
	for _, t := range c.chunk.Txns {
		s.importPortion(t)
	}
	s.setResult(c.ID, result{OK: true})
}

// importPortion merges one migrated transaction sub-portion into this
// shard's state. The interesting cases arise when this shard already holds
// a portion for the same transaction (it was a participant too, or earlier
// chunks arrived first): the resident and incoming states must converge on
// one outcome with every write applied exactly once.
func (s *mapSM) importPortion(t *txnPortion) {
	ex, ok := s.txns[t.TxnID]
	if !ok {
		cp := t.clone()
		s.txns[t.TxnID] = cp
		if cp.State == txnStatePrepared {
			for _, k := range cp.localKeys() {
				s.locks[k] = cp.TxnID
			}
			s.touchLock(cp.TxnID)
		} else {
			cp.Writes = nil
			cp.Conds = nil
			s.txnOrder = append(s.txnOrder, cp.TxnID)
			s.evictTxns()
		}
		return
	}
	switch {
	case ex.State == txnStatePrepared && t.State == txnStatePrepared:
		ex.mergeOps(t)
		for _, k := range t.localKeys() {
			s.locks[k] = ex.TxnID
		}
		s.touchLock(ex.TxnID)
	case ex.State == txnStatePrepared:
		// The transaction resolved elsewhere while this slice was in
		// flight: land the decision on the resident portion too.
		s.resolvePortion(ex, t.State == txnStateCommitted)
		ex.mergeReads(t)
	case ex.State == txnStateCommitted && t.State == txnStatePrepared:
		// Resident tombstone says committed, but the incoming keys' writes
		// were still held back on their source when it froze: apply them
		// here, exactly once — this is the only place they can ever land.
		for _, w := range t.Writes {
			if w.Delete {
				delete(s.items, w.Key)
			} else {
				s.items[w.Key] = w.Val
			}
		}
		ex.mergeReads(t)
	default:
		// Aborted + prepared (writes discarded), or both resolved.
		ex.mergeReads(t)
	}
}

// snapshotState is the wire form of a shard snapshot. Results travel in FIFO
// order so the joiner rebuilds the identical eviction queue.
type snapshotState struct {
	Items    map[string][]byte `json:"items"`
	Results  []savedResult     `json:"results"`
	Window   int               `json:"window"`
	Routing  Routing           `json:"routing"`
	Pending  *Routing          `json:"pending,omitempty"`
	Txns     []*txnPortion     `json:"txns,omitempty"`
	TxnOrder []uint64          `json:"txnOrder,omitempty"`
}

type savedResult struct {
	ID uint64 `json:"id"`
	result
}

// Snapshot serialises the shard for atomic state transfer to a joiner.
func (s *mapSM) Snapshot() ([]byte, error) {
	st := snapshotState{
		Items:   s.items,
		Results: make([]savedResult, 0, len(s.order)),
		Window:  s.window,
		Routing: s.routing,
		Pending: s.pending,
	}
	for _, id := range s.order {
		st.Results = append(st.Results, savedResult{ID: id, result: s.results[id].result})
	}
	txnIDs := make([]uint64, 0, len(s.txns))
	for id := range s.txns {
		txnIDs = append(txnIDs, id)
	}
	sort.Slice(txnIDs, func(i, j int) bool { return txnIDs[i] < txnIDs[j] })
	for _, id := range txnIDs {
		st.Txns = append(st.Txns, s.txns[id])
	}
	st.TxnOrder = s.txnOrder
	return json.Marshal(st)
}

// Restore replaces the shard state with a snapshot. A nil snapshot resets
// the shard to its zero state — the wal recovery path uses this when every
// digest-stamped checkpoint was refused and replay must start from scratch
// (see wal.Log.RecoverVerified).
func (s *mapSM) Restore(snap []byte) error {
	if snap == nil {
		s.items = make(map[string][]byte)
		s.results = make(map[uint64]windowed)
		s.dedupSum = 0
		s.order = nil
		s.txns = make(map[uint64]*txnPortion)
		s.txnOrder = nil
		s.locks = make(map[string]uint64)
		s.lockSeen = make(map[uint64]time.Time)
		s.routing = s.initRouting
		s.curRing = nil
		if s.routing.Shards > 0 {
			s.curRing = s.routing.ring(s.store)
		}
		s.pending = nil
		s.pendRing = nil
		s.notifyRouting()
		return nil
	}
	var st snapshotState
	if err := json.Unmarshal(snap, &st); err != nil {
		return err
	}
	s.items = st.Items
	if s.items == nil {
		s.items = make(map[string][]byte)
	}
	s.results = make(map[uint64]windowed, len(st.Results))
	s.dedupSum = 0
	s.order = make([]uint64, 0, len(st.Results))
	for _, r := range st.Results {
		s.order = append(s.order, r.ID)
		w := windowed{result: r.result, sum: resultSum(r.ID, r.result)}
		s.results[r.ID] = w
		s.dedupSum += w.sum
	}
	if st.Window > 0 {
		s.window = st.Window
	}
	if st.Routing.Shards > 0 {
		s.routing = st.Routing
		s.curRing = st.Routing.ring(s.store)
	}
	s.pending = st.Pending
	s.pendRing = nil
	if s.pending != nil {
		s.pendRing = s.pending.ring(s.store)
	}
	s.txns = make(map[uint64]*txnPortion, len(st.Txns))
	s.locks = make(map[string]uint64)
	s.lockSeen = make(map[uint64]time.Time)
	for _, p := range st.Txns {
		s.txns[p.TxnID] = p
		if p.State == txnStatePrepared {
			for _, k := range p.localKeys() {
				s.locks[k] = p.TxnID
			}
			s.touchLock(p.TxnID)
		}
	}
	s.txnOrder = st.TxnOrder
	s.notifyRouting()
	return nil
}

// migrationView is a consistent read of the shard's routing state, for the
// handoff coordinator and the resume path.
type migrationView struct {
	Routing Routing
	Pending *Routing
	Keys    int
}

// importChunk is one migrate-import command's cargo: moved key/value pairs
// plus the dedup results whose keys move with them (tombstoned deletes
// included — their result must follow the key even though the item is gone)
// and the transaction sub-portions covering the moved keys.
type importChunk struct {
	Pairs   []Pair
	Results []importResult
	Txns    []*txnPortion
}

// importResult is one migrated dedup-window entry.
type importResult struct {
	ID  uint64
	OK  bool
	Key string
}

// exportChunks enumerates everything this shard loses under next — items
// and keyed results — grouped by destination shard and chunked to stay
// under maxBytes per chunk (at least one element per chunk). Caller must
// hold the replica lock (Read).
func (s *mapSM) exportChunks(next *ring, maxBytes int) map[int][]*importChunk {
	out := make(map[int][]*importChunk)
	size := make(map[int]int)
	chunkFor := func(dest, need int) *importChunk {
		chunks := out[dest]
		if len(chunks) == 0 || size[dest]+need > maxBytes {
			chunks = append(chunks, &importChunk{})
			out[dest] = chunks
			size[dest] = 0
		}
		size[dest] += need
		return chunks[len(chunks)-1]
	}
	for k, v := range s.items {
		dest := next.shard(k)
		if dest == s.shard {
			continue
		}
		ch := chunkFor(dest, len(k)+len(v)+16)
		ch.Pairs = append(ch.Pairs, Pair{Key: k, Val: append([]byte(nil), v...)})
	}
	for _, id := range s.order {
		r := s.results[id]
		if r.Key == "" {
			continue // reads and migration markers stay behind
		}
		dest := next.shard(r.Key)
		if dest == s.shard {
			continue
		}
		ch := chunkFor(dest, len(r.Key)+16)
		ch.Results = append(ch.Results, importResult{ID: id, OK: r.OK, Key: r.Key})
	}
	// Transaction portions follow their keys: a prepared portion's slice
	// moves wherever its locked keys go (the held-back writes included, so
	// an in-flight transaction survives the reshard); a tombstone's slice
	// follows its AllKeys so re-drives keep finding the decision.
	for _, p := range s.txns {
		var keys []string
		if p.State == txnStatePrepared {
			keys = p.localKeys()
		} else {
			for _, k := range p.AllKeys {
				if s.curRing == nil || s.curRing.shard(k) == s.shard {
					keys = append(keys, k)
				}
			}
		}
		byDest := make(map[int][]string)
		for _, k := range keys {
			if d := next.shard(k); d != s.shard {
				byDest[d] = append(byDest[d], k)
			}
		}
		for dest, moved := range byDest {
			sub := p.subPortion(moved)
			need := 64
			for _, w := range sub.Writes {
				need += len(w.Key) + len(w.Val) + 8
			}
			for i, k := range sub.Reads {
				need += len(k) + 8
				if i < len(sub.Values) {
					need += len(sub.Values[i])
				}
			}
			ch := chunkFor(dest, need)
			ch.Txns = append(ch.Txns, sub)
		}
	}
	return out
}
