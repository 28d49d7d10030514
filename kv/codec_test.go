package kv

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"
)

// sequencedOps is one command per op that travels a shard's total order:
// the six client ops and the internal migrate and audit ops. Every byte
// field is non-empty, so a decoded command compares equal field by field.
var sequencedOps = []command{
	{Request: Request{Op: ReqGet, ID: 1, MaxStale: 250 * time.Millisecond, Keys: []string{"a", "bb", ""}}},
	{Request: Request{Op: ReqPut, ID: 2, Key: "k", Val: []byte("value")}},
	{Request: Request{Op: ReqDelete, ID: 3, Key: "gone"}},
	{Request: Request{Op: ReqCAS, ID: 4, Key: "c", ExpectPresent: true, Expect: []byte("old"), Val: []byte("new")}},
	{Request: Request{Op: ReqTxnPrepare, ID: 5, TxnID: 77, HomeKey: "h", AllKeys: []string{"h", "r", "w"},
		Keys:   []string{"r"},
		Writes: []TxnWrite{{Key: "w", Val: []byte("1")}, {Key: "h", Val: []byte("x"), Delete: true}},
		Conds:  []TxnCond{{Key: "h", ExpectPresent: true, Expect: []byte("0")}}}},
	{Request: Request{Op: ReqTxnResolve, ID: 6, TxnID: 77, Commit: true, Key: "w", HomeKey: "h",
		AllKeys: []string{"h", "r", "w"}}},
	{Request: Request{Op: opMigrateBegin, ID: 7}, routing: Routing{Epoch: 2, Shards: 4, VNodes: 8}},
	{Request: Request{Op: opMigrateCommit, ID: 8}, routing: Routing{Epoch: 2, Shards: 4, VNodes: 8}},
	{Request: Request{Op: opMigrateAbort, ID: 9}, routing: Routing{Epoch: 2, Shards: 4, VNodes: 8}},
	{Request: Request{Op: opMigrateImport, ID: 10}, routing: Routing{Epoch: 2, Shards: 4, VNodes: 8},
		chunk: importChunk{
			Pairs:   []Pair{{Key: "m", Val: []byte("moved")}},
			Results: []importResult{{ID: 3, OK: true, Key: "m"}},
			Txns: []*txnPortion{{TxnID: 78, HomeKey: "m", AllKeys: []string{"m", "n"}, State: txnStatePrepared,
				Reads: []string{"m"}, Writes: []TxnWrite{{Key: "m", Val: []byte("2")}},
				Conds:  []TxnCond{{Key: "m", ExpectPresent: true, Expect: []byte("moved")}},
				Values: [][]byte{[]byte("moved")}, Found: []bool{true}}},
		}},
	{Request: Request{Op: opAudit, ID: 11}, ranges: defaultAuditRanges},
}

// encodeSequenced encodes c with the encoder its op uses in the store.
func encodeSequenced(c *command) []byte {
	switch c.Op {
	case opMigrateBegin, opMigrateCommit, opMigrateAbort:
		return encodeMigrate(c.Op, c.ID, c.routing)
	case opMigrateImport:
		return encodeMigrateImport(c.ID, c.routing, &c.chunk)
	case opAudit:
		return encodeAudit(c.ID, c.ranges)
	}
	return encodeCommand(&c.Request)
}

// TestCommandCodecRoundTrip: every sequenced op survives encode →
// decodeCommand; ops that never travel a shard's order, out-of-bounds
// audit ranges and routing tables, and every strict prefix of every
// encoding are rejected.
func TestCommandCodecRoundTrip(t *testing.T) {
	for i := range sequencedOps {
		want := sequencedOps[i]
		b := encodeSequenced(&want)
		got, err := decodeCommand(b)
		if err != nil {
			t.Fatalf("op %d: decode: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: round trip mismatch:\n got %+v\nwant %+v", want.Op, got, want)
		}
		for n := 0; n < len(b); n++ {
			if _, err := decodeCommand(b[:n]); err == nil {
				t.Errorf("op %d: accepted a %d-byte prefix of %d", want.Op, n, len(b))
			}
		}
	}
	rejected := [][]byte{
		encodeCommand(&Request{Op: ReqBatchPut, ID: 1, IDs: []uint64{2}, Pairs: []Pair{{Key: "k", Val: []byte("v")}}}),
		encodeCommand(&Request{Op: ReqTxn, ID: 1, Keys: []string{"k"}}),
		append(commandHeader(0, 1), 0),
		append(commandHeader(opAudit+1, 1), 1),
		encodeAudit(1, 0),
		encodeAudit(1, maxAuditRanges+1),
		encodeMigrate(opMigrateBegin, 1, Routing{Epoch: 2, Shards: 0}),
		encodeMigrate(opMigrateBegin, 1, Routing{Epoch: 2, Shards: 1<<20 + 1}),
		encodeMigrate(opMigrateBegin, 1, Routing{Epoch: 2, Shards: 1, VNodes: 1<<20 + 1}),
	}
	for _, b := range rejected {
		if _, err := decodeCommand(b); err == nil {
			t.Errorf("accepted %x as a shard command", b)
		}
	}
}

// TestRetryBeyondResultWindow pins the exactly-once horizon. A retry is
// deduplicated only while its first execution's result is in the shard's
// result window; once ResultWindow further commands (sequenced reads
// included) have applied, the retry executes again — here a create-CAS
// that then finds its own write and fails.
func TestRetryBeyondResultWindow(t *testing.T) {
	sm := newMapSM("horizon", 0, Routing{}, 4, nil)
	create := encodeCommand(&Request{Op: ReqCAS, ID: 1, Key: "k", Val: []byte("v")})
	swapped := func() bool {
		r, ok := sm.resultOf(1)
		return ok && r.OK
	}
	sm.Apply(create)
	if !swapped() {
		t.Fatal("create-CAS of an absent key failed")
	}
	sm.Apply(create)
	if !swapped() {
		t.Fatal("retry inside the window was not answered from the dedup window")
	}
	for i := 0; i < 4; i++ {
		sm.Apply(encodeCommand(&Request{Op: ReqGet, ID: uint64(100 + i), Keys: []string{"k"}}))
	}
	if _, held := sm.resultOf(1); held {
		t.Fatal("4 sequenced reads did not evict the CAS result from a 4-entry window")
	}
	sm.Apply(create)
	if swapped() {
		t.Fatal("retry beyond the window should re-execute and fail against its own write")
	}
	if v := sm.items["k"]; string(v) != "v" {
		t.Fatalf("k = %q, want %q", v, "v")
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, g := range goldenRequests {
		f.Add(EncodeRequest(g.req))
	}
	// A budget beyond what a Duration holds saturates; it must not wrap
	// negative and then change across a re-encoding.
	huge := binary.AppendUvarint([]byte{ProtoVersion, ReqDelete, 0}, math.MaxInt64/uint64(time.Millisecond)+1)
	f.Add(append(huge, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 'k'))
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeRequest(b)
		if err != nil {
			return
		}
		again, err := DecodeRequest(EncodeRequest(q))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("request changed across re-encoding:\n got %+v\nwant %+v", again, q)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, g := range goldenResponses {
		f.Add(EncodeResponse(g.resp))
	}
	huge := binary.AppendUvarint([]byte{ProtoVersion, statusOK, 1, 0, ReadStale}, math.MaxInt64/uint64(time.Millisecond)+1)
	f.Add(append(huge, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResponse(b)
		if err != nil {
			return
		}
		again, err := DecodeResponse(EncodeResponse(r))
		if err != nil {
			t.Fatalf("re-encoded response rejected: %v", err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("response changed across re-encoding:\n got %+v\nwant %+v", again, r)
		}
	})
}

// FuzzApplyCommand: no byte string crashes a replica. Each input is applied
// twice, so the dedup path runs as well.
func FuzzApplyCommand(f *testing.F) {
	for i := range sequencedOps {
		f.Add(encodeSequenced(&sequencedOps[i]))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// A migrate op builds a consistent-hash ring of Shards×VNodes
		// points; a valid table can ask for 2^40, which costs memory, not
		// correctness. Keep the fuzzer to rings it can build quickly.
		if c, err := decodeCommand(b); err == nil && (c.routing.Shards > 64 || c.routing.VNodes > 256) {
			t.Skip("ring too large to build per fuzz input")
		}
		sm := newMapSM("fuzz", 0, Routing{Epoch: 1, Shards: 2, VNodes: 8}, 4, nil)
		sm.Apply(b)
		sm.Apply(b)
		if _, err := sm.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	})
}
