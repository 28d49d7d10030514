package kv

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"
)

// One codec serves both hops an op takes: the access protocol between a
// client and a node's Service, and the shard command that travels a shard
// group's total order. A client op has one byte layout on every hop — the
// same op code and the same payload (appendOp) — and one reader (below)
// parses it wherever it arrives.
//
// Shard commands are applied by every replica, so the encoding must be
// deterministic and self-contained:
//
//	op(1) | id(8, big-endian) | op payload
//
// A client op (ReqGet … ReqTxnResolve) carries its access-protocol payload;
// ReqBatchPut travels as one ReqPut command per pair, and ReqTxn never
// travels a shard's order (its coordinator issues prepares and resolves).
// Byte strings are uvarint-length-prefixed. The id correlates a command with
// the result its apply deposits in the state machine's result window; ids
// are unique per client operation (random client nonce + counter).
//
// The internal ops below are sequenced by the store itself, never sent by a
// client; they number from 32 so they can never collide with a request op.
//
// The migrate ops are the live-resharding handoff protocol: begin installs a
// pending routing table (freezing the ranges that move away), import streams
// a chunk of frozen pairs into their new owner, commit flips the epoch and
// deletes moved keys, abort rolls a pending handoff back. Because they are
// ordinary sequenced commands they are journaled by the write-ahead log like
// any write — a crash mid-handoff recovers the exact migration state.
//
// The txn ops (ReqTxnPrepare, ReqTxnResolve) are the sequenced-2PC
// participant protocol (see txn.go): prepare locks a transaction's local
// keys and captures its reads at one position in the shard's total order;
// resolve applies or discards the portion. Like the migrate ops they are
// ordinary sequenced commands, so an in-doubt transaction survives any crash
// the write-ahead log survives.
const (
	opMigrateBegin byte = iota + 32
	opMigrateCommit
	opMigrateAbort
	opMigrateImport
	// opAudit is the sequenced self-audit: every replica computes a
	// range-partitioned digest of its replicated state at the command's
	// position in the total order and reports it to the node's auditor (see
	// audit.go). Riding the order like any op is what makes the digests
	// comparable — all replicas evaluate the identical state.
	opAudit
)

var errBadCommand = errors.New("kv: malformed command")

// appendBytes appends a uvarint length prefix and the bytes.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendKeys appends a key list: a count, then each key.
func appendKeys(dst []byte, keys []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendBytes(dst, []byte(k))
	}
	return dst
}

// appendRouting appends a routing table as three uvarints.
func appendRouting(dst []byte, rt Routing) []byte {
	dst = binary.AppendUvarint(dst, rt.Epoch)
	dst = binary.AppendUvarint(dst, uint64(rt.Shards))
	return binary.AppendUvarint(dst, uint64(rt.VNodes))
}

// appendOp appends r's op payload: everything after the header, identical in
// an access request and a shard command.
func appendOp(dst []byte, r *Request) []byte {
	switch r.Op {
	case ReqGet:
		// v4: the staleness bound precedes the keys (always present).
		dst = binary.AppendUvarint(dst, uint64(r.MaxStale/time.Millisecond))
		dst = appendKeys(dst, r.Keys)
	case ReqPut:
		dst = appendBytes(dst, []byte(r.Key))
		dst = appendBytes(dst, r.Val)
	case ReqDelete:
		dst = appendBytes(dst, []byte(r.Key))
	case ReqCAS:
		dst = appendBytes(dst, []byte(r.Key))
		dst = appendBool(dst, r.ExpectPresent)
		dst = appendBytes(dst, r.Expect)
		dst = appendBytes(dst, r.Val)
	case ReqBatchPut:
		dst = binary.AppendUvarint(dst, uint64(len(r.Pairs)))
		for i, p := range r.Pairs {
			dst = binary.BigEndian.AppendUint64(dst, r.IDs[i])
			dst = appendBytes(dst, []byte(p.Key))
			dst = appendBytes(dst, p.Val)
		}
	case ReqTxnPrepare:
		// The txn id is distinct from the command id, so re-drives with
		// fresh command ids still converge on one portion.
		dst = binary.BigEndian.AppendUint64(dst, r.TxnID)
		dst = appendBytes(dst, []byte(r.HomeKey))
		dst = appendKeys(dst, r.AllKeys)
		dst = appendKeys(dst, r.Keys)
		dst = appendTxnOps(dst, r.Writes, r.Conds)
	case ReqTxnResolve:
		// The full key set lets a shard that never saw the prepare fence
		// the decision for the keys it serves.
		dst = binary.BigEndian.AppendUint64(dst, r.TxnID)
		dst = appendBool(dst, r.Commit)
		dst = appendBytes(dst, []byte(r.Key))
		dst = appendBytes(dst, []byte(r.HomeKey))
		dst = appendKeys(dst, r.AllKeys)
	case ReqTxn:
		dst = appendKeys(dst, r.Keys)
		dst = appendTxnOps(dst, r.Writes, r.Conds)
	}
	return dst
}

// appendTxnOps appends a transaction's write and condition sets.
func appendTxnOps(dst []byte, writes []TxnWrite, conds []TxnCond) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(writes)))
	for _, w := range writes {
		dst = appendBytes(dst, []byte(w.Key))
		dst = appendBool(dst, w.Delete)
		dst = appendBytes(dst, w.Val)
	}
	dst = binary.AppendUvarint(dst, uint64(len(conds)))
	for _, c := range conds {
		dst = appendBytes(dst, []byte(c.Key))
		dst = appendBool(dst, c.ExpectPresent)
		dst = appendBytes(dst, c.Expect)
	}
	return dst
}

// --- Access protocol (client ↔ service) --------------------------------------
//
// The access protocol is what travels between a client and a node's Service
// over Amoeba RPC — and, re-rendered as text, over amoeba-kv's TCP line
// protocol — so the in-process client, the RPC proxy, and the external
// daemon speak one protocol. Requests are self-describing and versioned:
//
//	ver(1) | op(1) | flags(1) | budget-ms uvarint | epoch uvarint | id(8) | op payload
//
// and responses:
//
//	ver(1) | status(1) | status payload
//
// Command ids are chosen by the originating client and carried end to end
// (batch ops carry one id per element): replicas deduplicate applies by id,
// which is what keeps retries exactly-once across RPC retransmissions,
// ForwardRequest hops, shard failovers, and routing-epoch flips. The epoch
// is the routing table the client targeted the request with; a service at a
// different epoch still serves the request (under its own, newer-or-older
// table, forwarding misroutes), and attaches its table to the response so
// the client converges. A node receiving a request whose version it does not
// speak answers with an error response naming its own version instead of
// guessing.

// ProtoVersion is the access-protocol version this build speaks. Version 2
// added the routing epoch to requests and the routing table to responses;
// version 3 added the transaction ops and the txn outcome byte on responses;
// version 4 added the read-path flags (lease and bounded-staleness reads), a
// max-staleness bound on ReqGet, and the read-path and topology fields on
// responses (which path served the read, how stale it may be, and the node
// count and replication factor a fleet-shaped client steers reads with).
const ProtoVersion = 4

// Request ops.
const (
	// ReqGet is a sequenced (linearizable) read of Keys. Multi-key
	// requests may span shards; the serving node then runs them as a
	// read-only transaction, so the values form one atomic snapshot.
	ReqGet byte = iota + 1
	// ReqPut stores Key = Val.
	ReqPut
	// ReqDelete removes Key, reporting whether it existed.
	ReqDelete
	// ReqCAS swaps Key to Val if its value equals Expect (ExpectPresent
	// false: only if absent).
	ReqCAS
	// ReqBatchPut writes Pairs, each deduplicated by its own id in IDs.
	ReqBatchPut
	// ReqTxnPrepare locks one shard's portion of a transaction (TxnID,
	// HomeKey, AllKeys; local reads in Keys, plus Writes and Conds) and
	// captures its reads. Issued by the 2PC coordinator in Client.Txn.
	ReqTxnPrepare
	// ReqTxnResolve commits (Commit true) or aborts one shard's portion of
	// TxnID. Key names a representative key the portion serves, so routing
	// follows the portion across reshardings.
	ReqTxnResolve
	// ReqTxn is a whole transaction (reads in Keys, plus Writes and Conds):
	// the form ring-less clients and the daemon's TXN verb send. A node (or
	// ring-aware client) receiving it runs the 2PC coordinator itself.
	ReqTxn
)

// Request flags.
const (
	// flagForwarded marks a request that already took a ForwardRequest
	// hop. A service must answer it — serve or fail — never forward
	// again: the loop bound should two nodes' rings ever disagree.
	flagForwarded byte = 1 << 0
	// flagLeaseRead invites the serving node to answer a ReqGet from local
	// state under its read lease instead of sequencing the read. The server
	// falls back to the sequenced path when it holds no valid lease (or any
	// key is frozen or locked), so the flag never weakens the result: either
	// way the read is linearizable.
	flagLeaseRead byte = 1 << 1
	// flagStaleRead permits a ReqGet to be served from any replica's local
	// state provided its staleness bound is within the request's MaxStale —
	// the follower-read path. Without a bound in budget the server falls
	// back to the sequenced path.
	flagStaleRead byte = 1 << 2
)

// Read paths a ReqGet response reports (Response.ReadPath).
const (
	// ReadSequenced: the read travelled the shard's total order.
	ReadSequenced byte = iota
	// ReadLease: served from local state under a valid read lease
	// (linearizable without sequencing).
	ReadLease
	// ReadStale: served from local state at a bounded staleness
	// (Response.StaleFor).
	ReadStale
)

var (
	errBadRequest = errors.New("kv: malformed request")
	// errVersion reports a request or response from a different protocol
	// version.
	errVersion = fmt.Errorf("kv: unsupported protocol version (this build speaks v%d)", ProtoVersion)
)

// Request is one decoded access-protocol operation.
type Request struct {
	Op    byte
	Flags byte
	// ID is the command id (single-command ops). The zero value asks the
	// client to assign one; it is always set on the wire.
	ID uint64
	// Budget is the caller's remaining time budget, carried across the
	// RPC hop so the serving node's context expires with the caller's.
	// Zero means "server default".
	Budget time.Duration
	// Epoch is the routing-table epoch the client targeted this request
	// with (0: no routing knowledge). A service whose table differs
	// answers with its own table attached, so stale clients converge.
	Epoch uint64
	// MaxStale bounds how stale a flagStaleRead ReqGet may be served
	// (zero: no stale serving). Ignored without the flag.
	MaxStale time.Duration

	Keys          []string // ReqGet; txn ops: the read set (local subset for ReqTxnPrepare)
	Key           string   // ReqPut, ReqDelete, ReqCAS; ReqTxnResolve: representative routing key
	Val           []byte   // ReqPut, ReqCAS
	ExpectPresent bool     // ReqCAS
	Expect        []byte   // ReqCAS
	Pairs         []Pair   // ReqBatchPut
	// IDs carries one command id per Pairs element, preserved verbatim
	// across splits and forwards so every node deduplicates identically.
	IDs []uint64 // ReqBatchPut

	// Transaction fields (ReqTxn, ReqTxnPrepare, ReqTxnResolve). TxnID is
	// the transaction's identity across every participant shard; HomeKey
	// names the home portion whose shard order arbitrates the outcome;
	// AllKeys is the full (sorted) key set, carried so any shard can fence
	// the decision for keys it serves.
	TxnID   uint64
	HomeKey string
	AllKeys []string
	Writes  []TxnWrite // ReqTxn, ReqTxnPrepare (local subset)
	Conds   []TxnCond  // ReqTxn, ReqTxnPrepare (local subset)
	Commit  bool       // ReqTxnResolve: the decision being applied
}

// EncodeRequest renders a request for the wire.
func EncodeRequest(r *Request) []byte {
	dst := make([]byte, 0, 64)
	dst = append(dst, ProtoVersion, r.Op, r.Flags)
	dst = binary.AppendUvarint(dst, uint64(r.Budget/time.Millisecond))
	dst = binary.AppendUvarint(dst, r.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	return appendOp(dst, r)
}

// DecodeRequest parses a wire request, rejecting unknown versions and ops.
// A ReqGet needs at least one key and a ReqBatchPut at least one pair.
func DecodeRequest(b []byte) (*Request, error) {
	if len(b) >= 3 && b[0] != ProtoVersion {
		return nil, errVersion
	}
	rd := reader{b: b}
	rd.u8() // version
	q := &Request{Op: rd.u8(), Flags: rd.u8()}
	q.Budget = rd.millis()
	q.Epoch = rd.uvarint()
	q.ID = rd.u64()
	known := rd.readOp(q)
	if rd.bad || q.Op == ReqGet && len(q.Keys) == 0 || q.Op == ReqBatchPut && len(q.Pairs) == 0 {
		return nil, errBadRequest
	}
	if !known {
		return nil, fmt.Errorf("kv: unknown request op %d: %w", q.Op, errBadRequest)
	}
	return q, nil
}

// Response statuses.
const (
	statusOK  byte = 1
	statusErr byte = 2
)

// Response is the decoded outcome of one Request, identical whether the
// request executed in process, across the RPC proxy, or behind a forward.
type Response struct {
	// OK reports mutation success: CAS swapped, Delete found the key.
	// Always true for Put, BatchPut, and Get responses.
	OK bool
	// Values and Found answer ReqGet, aligned with the request's Keys.
	Values [][]byte
	Found  []bool
	// Routing, when non-nil, is the serving node's routing table: attached
	// whenever the request's epoch differed from the server's, so a stale
	// client adopts the new table from any response — no config service.
	Routing *Routing
	// TxnState answers the txn ops: the portion's state after this request
	// applied (txnStatePrepared/Committed/Aborted), zero for non-txn ops.
	TxnState byte
	// Conflict reports a prepare that lost to a different live transaction
	// holding one of its keys; the coordinator retries with a fresh txn id.
	Conflict bool
	// CondFailed reports a prepare whose conditions did not hold; the
	// transaction aborts without retry, like a failed CAS.
	CondFailed bool
	// ReadPath reports which path served a ReqGet (ReadSequenced,
	// ReadLease, ReadStale); zero for non-read ops.
	ReadPath byte
	// StaleFor is the staleness bound of a ReadStale answer (how far
	// behind the total order the serving state may have been); zero
	// otherwise.
	StaleFor time.Duration
	// Nodes and Replication describe the serving store's topology (node
	// count and replicas per shard). A fleet-shaped client combines them
	// with the routing table to steer reads at the replicas hosting each
	// shard. Zero: not reported.
	Nodes       int
	Replication int
	// Err is a non-empty error description; all other fields are zero.
	Err string
}

// EncodeResponse renders a response for the wire.
func EncodeResponse(r *Response) []byte {
	dst := make([]byte, 0, 32)
	if r.Err != "" {
		dst = append(dst, ProtoVersion, statusErr)
		return appendBytes(dst, []byte(r.Err))
	}
	dst = append(dst, ProtoVersion, statusOK)
	dst = appendBool(dst, r.OK)
	// Txn outcome byte (v3): bits 0–1 TxnState, bit 2 Conflict, bit 3
	// CondFailed. Always present; zero for non-txn responses.
	txn := r.TxnState & 3
	if r.Conflict {
		txn |= 1 << 2
	}
	if r.CondFailed {
		txn |= 1 << 3
	}
	dst = append(dst, txn)
	// Read-path and topology fields (v4). Always present; zero when the
	// response is not a read or the server does not report topology.
	dst = append(dst, r.ReadPath)
	dst = binary.AppendUvarint(dst, uint64(r.StaleFor/time.Millisecond))
	dst = binary.AppendUvarint(dst, uint64(r.Nodes))
	dst = binary.AppendUvarint(dst, uint64(r.Replication))
	dst = appendBool(dst, r.Routing != nil)
	if r.Routing != nil {
		dst = appendRouting(dst, *r.Routing)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	for i, v := range r.Values {
		dst = appendBool(dst, i < len(r.Found) && r.Found[i])
		dst = appendBytes(dst, v)
	}
	return dst
}

// DecodeResponse parses a wire response.
func DecodeResponse(b []byte) (*Response, error) {
	if len(b) >= 2 && b[0] != ProtoVersion {
		return nil, errVersion
	}
	rd := reader{b: b}
	rd.u8() // version
	r := &Response{}
	switch rd.u8() {
	case statusErr:
		r.Err = rd.str()
		if r.Err == "" {
			r.Err = "kv: unspecified remote error"
		}
	case statusOK:
		r.OK = rd.flag()
		txn := rd.u8()
		r.TxnState = txn & 3
		r.Conflict = txn&(1<<2) != 0
		r.CondFailed = txn&(1<<3) != 0
		r.ReadPath = rd.u8()
		r.StaleFor = rd.millis()
		r.Nodes = int(rd.within(0, 1<<20))
		r.Replication = int(rd.within(0, 1<<20))
		if rd.flag() {
			rt := rd.routing()
			r.Routing = &rt
		}
		n := rd.count()
		r.Values = make([][]byte, n)
		r.Found = make([]bool, n)
		for i := range r.Values {
			r.Found[i] = rd.flag()
			// Values are copied out: the response outlives the RPC buffer.
			if v := rd.bytes(); r.Found[i] {
				r.Values[i] = append([]byte(nil), v...)
			}
		}
	default:
		rd.fail()
	}
	if rd.bad {
		return nil, errBadRequest
	}
	return r, nil
}

// --- Shard commands ------------------------------------------------------------

// command is a decoded shard command: a client op's Request, plus the fields
// of the internal ops.
type command struct {
	Request
	routing Routing     // migrate ops: the target table
	chunk   importChunk // opMigrateImport
	ranges  int         // opAudit: digest partition count
}

func commandHeader(op byte, id uint64) []byte {
	dst := make([]byte, 9, 32)
	dst[0] = op
	binary.BigEndian.PutUint64(dst[1:], id)
	return dst
}

// encodeCommand renders a single-command client op (ReqGet … ReqTxnResolve,
// but not ReqBatchPut) as a shard command.
func encodeCommand(r *Request) []byte {
	return appendOp(commandHeader(r.Op, r.ID), r)
}

// encodeAudit encodes a sequenced audit over ranges digest partitions.
func encodeAudit(id uint64, ranges int) []byte {
	return binary.AppendUvarint(commandHeader(opAudit, id), uint64(ranges))
}

// encodeMigrate encodes a begin, commit, or abort carrying the target table.
func encodeMigrate(op byte, id uint64, rt Routing) []byte {
	return appendRouting(commandHeader(op, id), rt)
}

// encodeMigrateImport encodes one chunk of pairs (and migrated dedup
// results and transaction portions) streamed into their new owner, tagged
// with the target epoch that gates its application.
func encodeMigrateImport(id uint64, rt Routing, chunk *importChunk) []byte {
	dst := appendRouting(commandHeader(opMigrateImport, id), rt)
	dst = binary.AppendUvarint(dst, uint64(len(chunk.Pairs)))
	for _, p := range chunk.Pairs {
		dst = appendBytes(dst, []byte(p.Key))
		dst = appendBytes(dst, p.Val)
	}
	dst = binary.AppendUvarint(dst, uint64(len(chunk.Results)))
	for _, r := range chunk.Results {
		dst = binary.BigEndian.AppendUint64(dst, r.ID)
		dst = appendBool(dst, r.OK)
		dst = appendBytes(dst, []byte(r.Key))
	}
	// Transaction portions travel as their snapshot (JSON) form: they are
	// rare relative to pairs, and reusing the snapshot codec keeps the two
	// serialisations from drifting apart.
	dst = binary.AppendUvarint(dst, uint64(len(chunk.Txns)))
	for _, p := range chunk.Txns {
		blob, err := json.Marshal(p)
		if err != nil {
			blob = nil // unreachable: txnPortion has no unmarshalable fields
		}
		dst = appendBytes(dst, blob)
	}
	return dst
}

// decodeCommand parses a shard command. ReqBatchPut and ReqTxn never travel
// a shard's order, so they are rejected like any unknown op.
func decodeCommand(b []byte) (command, error) {
	rd := reader{b: b}
	var c command
	c.Op = rd.u8()
	c.ID = rd.u64()
	known := true
	switch c.Op {
	case ReqBatchPut, ReqTxn:
		known = false
	case opMigrateBegin, opMigrateCommit, opMigrateAbort:
		c.routing = rd.routing()
	case opMigrateImport:
		c.routing = rd.routing()
		rd.importChunk(&c.chunk)
	case opAudit:
		c.ranges = int(rd.within(1, maxAuditRanges))
	default:
		known = rd.readOp(&c.Request)
	}
	if rd.bad {
		return command{}, errBadCommand
	}
	if !known {
		return command{}, fmt.Errorf("kv: unknown op %d: %w", c.Op, errBadCommand)
	}
	return c, nil
}

// --- Reader ----------------------------------------------------------------------

// reader consumes an encoding field by field. The first malformed field
// marks it bad and empties the input, so every later read yields a zero
// value and a decoder checks bad once, at the end. Counts and lengths may
// not exceed the bytes left, which also caps what a malformed input can
// make a decoder allocate.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) fail() {
	r.b, r.bad = nil, true
}

func (r *reader) u8() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) flag() bool { return r.u8() != 0 }

func (r *reader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) uvarint() uint64 {
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[w:]
	return v
}

// within reads a uvarint that must lie in [lo, hi].
func (r *reader) within(lo, hi uint64) uint64 {
	v := r.uvarint()
	if v < lo || v > hi {
		r.fail()
		return 0
	}
	return v
}

// count reads an element count or a byte-string length. Either may not
// exceed the bytes left: every element, like every byte, takes at least one.
func (r *reader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

// millis reads a millisecond count as a Duration, saturating rather than
// overflowing.
func (r *reader) millis() time.Duration {
	ms := min(r.uvarint(), math.MaxInt64/uint64(time.Millisecond))
	return time.Duration(ms) * time.Millisecond
}

// bytes reads a length-prefixed byte string. The result aliases the input
// (capacity-capped, so an append cannot clobber what follows).
func (r *reader) bytes() []byte {
	n := r.count()
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) keys() []string {
	keys := make([]string, r.count())
	for i := range keys {
		keys[i] = r.str()
	}
	return keys
}

// routing reads a routing table: 1..2^20 shards, at most 2^20 vnodes.
func (r *reader) routing() Routing {
	return Routing{Epoch: r.uvarint(), Shards: int(r.within(1, 1<<20)), VNodes: int(r.within(0, 1<<20))}
}

// readOp reads q.Op's payload — the inverse of appendOp — and reports
// whether the op is a known request op.
func (r *reader) readOp(q *Request) bool {
	switch q.Op {
	case ReqGet:
		q.MaxStale = r.millis()
		q.Keys = r.keys()
	case ReqPut:
		q.Key = r.str()
		q.Val = r.bytes()
	case ReqDelete:
		q.Key = r.str()
	case ReqCAS:
		q.Key = r.str()
		q.ExpectPresent = r.flag()
		q.Expect = r.bytes()
		q.Val = r.bytes()
	case ReqBatchPut:
		n := r.count()
		q.Pairs = make([]Pair, n)
		q.IDs = make([]uint64, n)
		for i := range q.Pairs {
			q.IDs[i] = r.u64()
			q.Pairs[i] = Pair{Key: r.str(), Val: r.bytes()}
		}
	case ReqTxnPrepare:
		q.TxnID = r.u64()
		q.HomeKey = r.str()
		q.AllKeys = r.keys()
		q.Keys = r.keys()
		r.txnOps(q)
	case ReqTxnResolve:
		q.TxnID = r.u64()
		q.Commit = r.flag()
		q.Key = r.str()
		q.HomeKey = r.str()
		q.AllKeys = r.keys()
	case ReqTxn:
		q.Keys = r.keys()
		r.txnOps(q)
	default:
		return false
	}
	return true
}

// txnOps reads a transaction's write and condition sets into q.
func (r *reader) txnOps(q *Request) {
	q.Writes = make([]TxnWrite, r.count())
	for i := range q.Writes {
		q.Writes[i] = TxnWrite{Key: r.str(), Delete: r.flag(), Val: r.bytes()}
	}
	q.Conds = make([]TxnCond, r.count())
	for i := range q.Conds {
		q.Conds[i] = TxnCond{Key: r.str(), ExpectPresent: r.flag(), Expect: r.bytes()}
	}
}

// importChunk reads a migrate-import's cargo. Pair values are copied so a
// live item does not pin the whole chunk's buffer.
func (r *reader) importChunk(c *importChunk) {
	c.Pairs = make([]Pair, r.count())
	for i := range c.Pairs {
		c.Pairs[i] = Pair{Key: r.str(), Val: append([]byte(nil), r.bytes()...)}
	}
	c.Results = make([]importResult, r.count())
	for i := range c.Results {
		c.Results[i] = importResult{ID: r.u64(), OK: r.flag(), Key: r.str()}
	}
	c.Txns = make([]*txnPortion, r.count())
	for i := range c.Txns {
		c.Txns[i] = &txnPortion{}
		if err := json.Unmarshal(r.bytes(), c.Txns[i]); err != nil {
			r.fail()
		}
	}
}
