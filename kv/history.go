package kv

import (
	"context"
	"sync"
	"time"
)

// This file is the measurement half of the adversarial harness (see the fuzz
// package): a client wrapper that records the complete concurrent operation
// history — what each client invoked, when, and what came back — in the form
// a linearizability checker consumes. Recording happens at the public-API
// boundary, so everything below it (routing, retries, forwards, dedup,
// resharding, recovery) is inside the system under test.

// HistoryOp is the operation kind of one recorded event.
type HistoryOp int

// Operation kinds. MGet records one OpGet event per key and BatchPut one
// OpPut per pair — per-key linearizability is the store's documented
// guarantee (cross-shard snapshots are not), so the checker works per key.
const (
	OpGet HistoryOp = iota
	OpPut
	OpDelete
	OpCAS
	// OpTxn is one multi-key atomic operation: a transaction's writes
	// (Writes, Committed) and/or its consistent snapshot reads (ReadKeys,
	// ReadVals, ReadFound). MGet records as a read-only OpTxn — the store
	// promises a cross-shard snapshot, so the history claims one and the
	// checker holds it to that.
	OpTxn
	// OpStaleGet is an opt-in bounded-staleness read (Client.StaleGet): the
	// observed value need not be current, but must have been the key's
	// value no earlier than Bound before the invocation. It is excluded
	// from the linearizability search and held to its own bounded-staleness
	// check instead.
	OpStaleGet
)

// String names an op for schedule dumps and checker diagnostics.
func (o HistoryOp) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpCAS:
		return "cas"
	case OpTxn:
		return "txn"
	case OpStaleGet:
		return "staleget"
	}
	return "?"
}

// HistoryEvent is one completed (or failed) client operation: the invocation
// window [Invoke, Return] in nanoseconds since the history's epoch, and the
// observed outcome. A failed operation (Err != "") has an UNKNOWN outcome —
// a write may or may not have taken effect (the command can still be applied
// after the client gave up), a read observed nothing; the checker must treat
// it accordingly.
type HistoryEvent struct {
	// Client identifies the recording client; within one client events do
	// not overlap (the wrapper serialises per client, like a real caller).
	Client int
	Op     HistoryOp
	Key    string
	// Val is the written value (put, cas) or the observed value (get;
	// nil when absent).
	Val []byte
	// Found reports presence for get, existed-for-delete, and success for
	// cas (the compare matched).
	Found bool
	// Expect/ExpectPresent carry a cas's compare operand.
	Expect        []byte
	ExpectPresent bool
	// Multi-key payload (OpTxn). ReadKeys/ReadVals/ReadFound are the
	// transaction's snapshot reads (parallel slices); Writes are the
	// writes it committed atomically — empty unless Committed. Committed
	// false with Err empty is a KNOWN abort (condition failed): the
	// writes certainly did not land.
	ReadKeys  []string
	ReadVals  [][]byte
	ReadFound []bool
	Writes    []TxnWrite
	Committed bool
	// Bound is an OpStaleGet's requested staleness bound, and StaleFor the
	// bound the server actually reported for the served value (0 when the
	// read fell back to the sequenced path).
	Bound    time.Duration
	StaleFor time.Duration
	// Invoke and Return bound the operation in nanoseconds since the
	// history's epoch. Return < 0 marks an operation that never returned
	// (client still blocked when the run ended) — linearizable anywhere
	// after Invoke.
	Invoke int64
	Return int64
	// Err is the operation's failure, empty on success.
	Err string
}

// Failed reports whether the event's outcome is unknown (errored or never
// returned).
func (e HistoryEvent) Failed() bool { return e.Err != "" || e.Return < 0 }

// History accumulates events from concurrent recording clients. Safe for
// concurrent use; the zero value is NOT ready — use NewHistory.
type History struct {
	epoch time.Time
	mu    sync.Mutex
	evs   []HistoryEvent
}

// NewHistory returns an empty history; event timestamps count from now.
func NewHistory() *History { return &History{epoch: time.Now()} }

// now is the history's clock: nanoseconds since the epoch.
func (h *History) now() int64 { return time.Since(h.epoch).Nanoseconds() }

// add records one completed event.
func (h *History) add(e HistoryEvent) {
	h.mu.Lock()
	h.evs = append(h.evs, e)
	h.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (h *History) Events() []HistoryEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistoryEvent, len(h.evs))
	copy(out, h.evs)
	return out
}

// RecordingClient wraps a Client so every operation lands in a shared
// History with its invocation window. One RecordingClient models one
// sequential caller: use several (each with its own id) for a concurrent
// workload. Methods mirror the Client's signatures.
type RecordingClient struct {
	c  *Client
	h  *History
	id int
}

// Record wraps c; id must be unique among the history's clients.
func Record(c *Client, h *History, id int) *RecordingClient {
	return &RecordingClient{c: c, h: h, id: id}
}

// finish stamps the return edge and records the event. A failed operation
// records Return < 0: the client stopped waiting, but a write's command may
// still commit later, so it stays linearizable anywhere after Invoke.
func (r *RecordingClient) finish(e HistoryEvent, err error) {
	e.Return = r.h.now()
	if err != nil {
		e.Err = err.Error()
		e.Return = -1
	}
	r.h.add(e)
}

// Get performs a sequenced read, recording the observed value.
func (r *RecordingClient) Get(ctx context.Context, key string) ([]byte, bool, error) {
	e := HistoryEvent{Client: r.id, Op: OpGet, Key: key, Invoke: r.h.now()}
	val, found, err := r.c.Get(ctx, key)
	e.Val, e.Found = copyVal(val), found
	r.finish(e, err)
	return val, found, err
}

// StaleGet performs the opt-in bounded-staleness read, recording the
// observed value together with the requested bound and the server-reported
// staleness — the claims the fuzz harness's bounded-staleness check holds
// the read to.
func (r *RecordingClient) StaleGet(ctx context.Context, key string, maxStale time.Duration) ([]byte, bool, time.Duration, error) {
	e := HistoryEvent{Client: r.id, Op: OpStaleGet, Key: key, Bound: maxStale, Invoke: r.h.now()}
	val, found, staleFor, err := r.c.StaleGet(ctx, key, maxStale)
	e.Val, e.Found, e.StaleFor = copyVal(val), found, staleFor
	r.finish(e, err)
	return val, found, staleFor, err
}

// Put stores key = val, recording the write.
func (r *RecordingClient) Put(ctx context.Context, key string, val []byte) error {
	e := HistoryEvent{Client: r.id, Op: OpPut, Key: key, Val: copyVal(val), Invoke: r.h.now()}
	err := r.c.Put(ctx, key, val)
	r.finish(e, err)
	return err
}

// Delete removes key, recording whether it existed.
func (r *RecordingClient) Delete(ctx context.Context, key string) (bool, error) {
	e := HistoryEvent{Client: r.id, Op: OpDelete, Key: key, Invoke: r.h.now()}
	existed, err := r.c.Delete(ctx, key)
	e.Found = existed
	r.finish(e, err)
	return existed, err
}

// CAS attempts the compare-and-swap, recording operands and outcome.
func (r *RecordingClient) CAS(ctx context.Context, key string, expect, val []byte) (bool, error) {
	e := HistoryEvent{Client: r.id, Op: OpCAS, Key: key,
		Val: copyVal(val), Expect: copyVal(expect), ExpectPresent: expect != nil,
		Invoke: r.h.now()}
	ok, err := r.c.CAS(ctx, key, expect, val)
	e.Found = ok
	r.finish(e, err)
	return ok, err
}

// MGet performs the multi-key read, recording one read-only OpTxn event:
// the store serves MGet as a consistent cross-shard snapshot (all keys
// captured under one set of transaction locks), and the history records
// exactly that claim — the atomicity checker refutes torn snapshots, and
// the per-key checker consumes the decomposed reads under the shared
// window.
func (r *RecordingClient) MGet(ctx context.Context, keys ...string) (map[string][]byte, error) {
	e := HistoryEvent{Client: r.id, Op: OpTxn, ReadKeys: append([]string(nil), keys...),
		Committed: true, Invoke: r.h.now()}
	out, err := r.c.MGet(ctx, keys...)
	if err == nil {
		for _, k := range keys {
			v, found := out[k]
			e.ReadVals = append(e.ReadVals, copyVal(v))
			e.ReadFound = append(e.ReadFound, found)
		}
	}
	r.finish(e, err)
	return out, err
}

// Txn executes the transaction, recording one OpTxn event: its snapshot
// reads, and — when it committed — its writes as one atomic multi-key
// update. A condition-failed abort records Committed false with no error
// (a known no-op); a transport failure records an unknown outcome, whose
// writes may still land later.
func (r *RecordingClient) Txn(ctx context.Context, op TxnOp) (*TxnResult, error) {
	e := HistoryEvent{Client: r.id, Op: OpTxn, Invoke: r.h.now()}
	for _, w := range op.Writes {
		e.Writes = append(e.Writes, TxnWrite{Key: w.Key, Val: copyVal(w.Val), Delete: w.Delete})
	}
	res, err := r.c.Txn(ctx, op)
	if err == nil {
		e.Committed = res.Committed
		if res.Committed { // a condition-failed abort captures no snapshot
			e.ReadKeys = append([]string(nil), op.Reads...)
			for i := range op.Reads {
				var v []byte
				var found bool
				if i < len(res.Values) {
					v, found = res.Values[i], res.Found[i]
				}
				e.ReadVals = append(e.ReadVals, copyVal(v))
				e.ReadFound = append(e.ReadFound, found)
			}
		}
	}
	r.finish(e, err)
	return res, err
}

// BatchPut writes the pairs, recording one OpPut event per pair under the
// batch's shared invocation window (writes to one shard apply in slice
// order, but each key's write is individually linearizable in the window —
// the per-key claim the checker verifies).
func (r *RecordingClient) BatchPut(ctx context.Context, pairs []Pair) error {
	invoke := r.h.now()
	err := r.c.BatchPut(ctx, pairs)
	ret := r.h.now()
	for _, p := range pairs {
		e := HistoryEvent{Client: r.id, Op: OpPut, Key: p.Key, Val: copyVal(p.Val),
			Invoke: invoke, Return: ret}
		if err != nil {
			e.Err = err.Error()
			e.Return = -1
		}
		r.h.add(e)
	}
	return err
}

// Close releases the wrapped client's resources.
func (r *RecordingClient) Close() { r.c.Close() }
