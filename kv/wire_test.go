package kv

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"
)

// goldenRequests is one request per access op, every header field set. The
// hex beside each is its wire encoding at ProtoVersion 4.
var goldenRequests = []struct {
	req *Request
	hex string
}{
	{&Request{Op: ReqGet, Flags: flagStaleRead, ID: 0x0102030405060708, Budget: 1500 * time.Millisecond, Epoch: 3,
		MaxStale: 250 * time.Millisecond, Keys: []string{"a", "bb", ""}},
		"040104dc0b030102030405060708fa0103016102626200"},
	{&Request{Op: ReqPut, Flags: flagForwarded, ID: 9, Budget: 2 * time.Second, Epoch: 300, MaxStale: time.Millisecond,
		Key: "k", Val: []byte("value")},
		"040201d00fac020000000000000009016b0576616c7565"},
	{&Request{Op: ReqDelete, Flags: flagLeaseRead, ID: 10, Budget: time.Millisecond, Epoch: 1, MaxStale: time.Second,
		Key: "gone"},
		"0403020101000000000000000a04676f6e65"},
	{&Request{Op: ReqCAS, Flags: flagForwarded, ID: 11, Budget: 70 * time.Millisecond, Epoch: 2, MaxStale: time.Second,
		Key: "c", ExpectPresent: true, Expect: []byte("old"), Val: []byte("new")},
		"0404014602000000000000000b016301036f6c64036e6577"},
	{&Request{Op: ReqBatchPut, Flags: flagForwarded, Budget: 5 * time.Second, Epoch: 4, MaxStale: time.Second,
		IDs: []uint64{13, 14}, Pairs: []Pair{{Key: "x", Val: []byte("1")}, {Key: "y", Val: nil}}},
		"040501882704000000000000000002000000000000000d01780131000000000000000e017900"},
	{&Request{Op: ReqTxnPrepare, Flags: flagForwarded, ID: 15, Budget: 3 * time.Second, Epoch: 5, MaxStale: time.Second,
		TxnID: 0xfedcba9876543210, HomeKey: "h", AllKeys: []string{"h", "r", "w"}, Keys: []string{"r"},
		Writes: []TxnWrite{{Key: "w", Val: []byte("1")}, {Key: "h", Delete: true}},
		Conds:  []TxnCond{{Key: "h", ExpectPresent: true, Expect: []byte("0")}}},
		"040601b81705000000000000000ffedcba987654321001680301680172017701017202017700013101680100010168010130"},
	{&Request{Op: ReqTxnResolve, Flags: flagForwarded, ID: 16, Budget: 3 * time.Second, Epoch: 5, MaxStale: time.Second,
		TxnID: 0xfedcba9876543210, Commit: true, Key: "w", HomeKey: "h", AllKeys: []string{"h", "r", "w"}},
		"040701b817050000000000000010fedcba9876543210010177016803016801720177"},
	{&Request{Op: ReqTxn, Flags: flagForwarded, ID: 17, Budget: 4 * time.Second, Epoch: 6, MaxStale: time.Second,
		Keys: []string{"r"}, Writes: []TxnWrite{{Key: "w", Val: []byte("2")}},
		Conds: []TxnCond{{Key: "c", ExpectPresent: false}}},
		"040801a01f0600000000000000110101720101770001320101630000"},
}

// goldenResponses is an OK answer carrying every field, and an error.
var goldenResponses = []struct {
	resp *Response
	hex  string
}{
	{&Response{OK: true, TxnState: txnStateCommitted, CondFailed: true, ReadPath: ReadStale, StaleFor: 40 * time.Millisecond,
		Nodes: 5, Replication: 3, Routing: &Routing{Epoch: 7, Shards: 4, VNodes: 64},
		Values: [][]byte{[]byte("v"), nil, []byte("")}, Found: []bool{true, false, true}},
		"0401010a02280503010704400301017600000100"},
	{&Response{Err: "kaboom"}, "0402066b61626f6f6d"},
}

// TestAccessWireGolden pins the access protocol byte for byte: a change to
// any op's layout must bump ProtoVersion, not slip past the version check.
// Every strict prefix of every encoding is rejected, so no bounds check can
// go missing unnoticed.
func TestAccessWireGolden(t *testing.T) {
	for _, g := range goldenRequests {
		b := EncodeRequest(g.req)
		if got := hex.EncodeToString(b); got != g.hex {
			t.Errorf("op %d: wire\n got %s\nwant %s", g.req.Op, got, g.hex)
			continue
		}
		got, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("op %d: decode: %v", g.req.Op, err)
		}
		if !bytes.Equal(EncodeRequest(got), b) {
			t.Errorf("op %d: decode/encode changed the bytes", g.req.Op)
		}
		for n := 0; n < len(b); n++ {
			if _, err := DecodeRequest(b[:n]); err == nil {
				t.Errorf("op %d: accepted a %d-byte prefix of %d", g.req.Op, n, len(b))
			}
		}
	}
	// Well-framed requests and responses that break a bound are refused.
	for _, q := range []*Request{{Op: ReqGet}, {Op: ReqBatchPut}, {Op: ReqTxn + 1}} {
		if _, err := DecodeRequest(EncodeRequest(q)); err == nil {
			t.Errorf("op %d: accepted %x", q.Op, EncodeRequest(q))
		}
	}
	for _, r := range []*Response{{Routing: &Routing{Shards: 0}}, {Routing: &Routing{Shards: 1<<20 + 1}},
		{Routing: &Routing{Shards: 1, VNodes: 1<<20 + 1}}, {Nodes: 1<<20 + 1}, {Replication: 1<<20 + 1}} {
		if _, err := DecodeResponse(EncodeResponse(r)); err == nil {
			t.Errorf("accepted out-of-bounds response %+v", r)
		}
	}
	for i, g := range goldenResponses {
		b := EncodeResponse(g.resp)
		if got := hex.EncodeToString(b); got != g.hex {
			t.Errorf("response %d: wire\n got %s\nwant %s", i, got, g.hex)
			continue
		}
		got, err := DecodeResponse(b)
		if err != nil {
			t.Fatalf("response %d: decode: %v", i, err)
		}
		if !bytes.Equal(EncodeResponse(got), b) {
			t.Errorf("response %d: decode/encode changed the bytes", i)
		}
		for n := 0; n < len(b); n++ {
			if _, err := DecodeResponse(b[:n]); err == nil {
				t.Errorf("response %d: accepted a %d-byte prefix of %d", i, n, len(b))
			}
		}
	}
}
