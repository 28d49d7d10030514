package kv

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestSplitByShard checks the one request splitter on a 4-shard ring: every
// element lands in exactly one part, on its key's shard, in request order
// (pairs keeping their ids), each part carries the request's header as a
// fresh request (no command id, no forwarded mark), and parts follow the
// order of their first element.
func TestSplitByShard(t *testing.T) {
	r := newRing("split", 4, 64)
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%02d", i)
	}
	header := Request{Flags: flagLeaseRead | flagForwarded, ID: 77, Budget: time.Second, Epoch: 3,
		MaxStale: 250 * time.Millisecond, TxnID: 0xABCD, HomeKey: keys[0], AllKeys: keys}
	withHeader := func(op byte, fill func(*Request)) *Request {
		req := header
		req.Op = op
		fill(&req)
		return &req
	}
	var pairs []Pair
	var ids []uint64
	var writes []TxnWrite
	var conds []TxnCond
	for i, k := range keys {
		pairs = append(pairs, Pair{Key: k, Val: []byte{byte(i)}})
		ids = append(ids, uint64(1000+i))
		if i%2 == 0 {
			writes = append(writes, TxnWrite{Key: k, Val: []byte{byte(i)}, Delete: i%4 == 0})
		}
		if i%3 == 0 {
			conds = append(conds, TxnCond{Key: k, ExpectPresent: true, Expect: []byte{byte(i)}})
		}
	}
	cases := []struct {
		name string
		req  *Request
	}{
		{"get", withHeader(ReqGet, func(q *Request) { q.Keys = keys })},
		{"batch", withHeader(ReqBatchPut, func(q *Request) { q.Pairs, q.IDs = pairs, ids })},
		{"prepare", withHeader(ReqTxnPrepare, func(q *Request) {
			q.Keys, q.Writes, q.Conds = keys[:7], writes, conds
		})},
		{"txn", withHeader(ReqTxn, func(q *Request) { q.Keys, q.Writes, q.Conds = keys[5:], writes, conds })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			// The oracle: filter each element list by shard, in order.
			want := make(map[int]*Request)
			var order []int
			part := func(k string) *Request {
				s := r.shard(k)
				if want[s] == nil {
					want[s] = &Request{}
					order = append(order, s)
				}
				return want[s]
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
			if len(order) < 2 {
				t.Fatalf("fixture spans %d shards, want several", len(order))
			}

			parts := splitByShard(r, req)
			if len(parts) != len(order) {
				t.Fatalf("%d parts, want %d", len(parts), len(order))
			}
			hdr := *req
			hdr.ID, hdr.Keys, hdr.Pairs, hdr.IDs, hdr.Writes, hdr.Conds = 0, nil, nil, nil, nil, nil
			hdr.Flags = flagLeaseRead // parts are fresh requests: not forwarded
			for i, p := range parts {
				if p.shard != order[i] {
					t.Fatalf("part %d on shard %d, want %d (order of first element)", i, p.shard, order[i])
				}
				w := want[p.shard]
				got := p.req
				if !reflect.DeepEqual(got.Keys, w.Keys) || !reflect.DeepEqual(got.Pairs, w.Pairs) ||
					!reflect.DeepEqual(got.IDs, w.IDs) || !reflect.DeepEqual(got.Writes, w.Writes) ||
					!reflect.DeepEqual(got.Conds, w.Conds) {
					t.Fatalf("shard %d part = %+v, want elements %+v", p.shard, got, w)
				}
				h := *got
				h.Keys, h.Pairs, h.IDs, h.Writes, h.Conds = nil, nil, nil, nil, nil
				if !reflect.DeepEqual(h, hdr) {
					t.Fatalf("shard %d header = %+v, want %+v", p.shard, h, hdr)
				}
			}
		})
	}

	// A request on one shard is its own only part; one with no elements
	// routes by its Key.
	var same []string
	for i := 0; len(same) < 3; i++ {
		if k := fmt.Sprintf("one-%d", i); r.shard(k) == r.shard("one-0") {
			same = append(same, k)
		}
	}
	one := &Request{Op: ReqGet, ID: 5, Keys: same}
	if parts := splitByShard(r, one); len(parts) != 1 || parts[0].req != one || parts[0].shard != r.shard(same[0]) {
		t.Fatalf("single-shard get split into %+v", parts)
	}
	put := &Request{Op: ReqPut, ID: 6, Key: "solo"}
	if parts := splitByShard(r, put); len(parts) != 1 || parts[0].req != put || parts[0].shard != r.shard("solo") {
		t.Fatalf("put split into %+v", parts)
	}
}

// TestFanOutRealErrorBeatsMoved: whatever order the parts finish in, a real
// error wins over errMoved (the retry loops only help the moved case), and
// errMoved surfaces only when nothing worse happened.
func TestFanOutRealErrorBeatsMoved(t *testing.T) {
	errDown := errors.New("shard down")
	outcomes := []error{nil, errMoved, errDown, errMoved}
	// Every rotation of the finish order, both ways round: part i sleeps
	// 5 ms per step of its slot before answering.
	for rot := 0; rot < len(outcomes); rot++ {
		for _, reverse := range []bool{false, true} {
			err := fanOut(len(outcomes), func(i int) error {
				slot := (i + rot) % len(outcomes)
				if reverse {
					slot = len(outcomes) - 1 - slot
				}
				time.Sleep(time.Duration(slot) * 5 * time.Millisecond)
				return outcomes[i]
			})
			if err != errDown {
				t.Fatalf("rotation %d reverse=%v: fanOut = %v, want the real error", rot, reverse, err)
			}
		}
	}
	if err := fanOut(3, func(i int) error {
		if i == 1 {
			return errMoved
		}
		return nil
	}); err != errMoved {
		t.Fatalf("moved-only fanOut = %v, want errMoved", err)
	}
	ran := 0
	if err := fanOut(1, func(int) error { ran++; return nil }); err != nil || ran != 1 {
		t.Fatalf("single-part fanOut = %v after %d runs", err, ran)
	}
}
