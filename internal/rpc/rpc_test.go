package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"amoeba/internal/flip"
	"amoeba/internal/netw/memnet"
	"amoeba/internal/sim"
)

func newStack(t *testing.T, net *memnet.Network) *flip.Stack {
	t.Helper()
	st, err := net.Attach("node")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return flip.NewStack(flip.Config{
		Station:        st,
		Clock:          sim.NewRealClock(),
		LocateInterval: 5 * time.Millisecond,
	})
}

func cfg(stack *flip.Stack) Config {
	return Config{
		Stack:         stack,
		Clock:         sim.NewRealClock(),
		RetryInterval: 15 * time.Millisecond,
		MaxRetries:    20,
	}
}

func TestCallReply(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, err := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		return append([]byte("echo:"), req...), 0
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	cl, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	reply, err := cl.Call(srv.Addr(), []byte("ping"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "echo:ping" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestCallSurvivesLoss(t *testing.T) {
	net := memnet.New(memnet.Config{DropRate: 0.3, Seed: 5})
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		return req, 0
	})
	defer srv.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()

	for i := 0; i < 20; i++ {
		req := []byte(fmt.Sprintf("r%d", i))
		reply, err := cl.Call(srv.Addr(), req)
		if err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
		if !bytes.Equal(reply, req) {
			t.Fatalf("reply %d = %q", i, reply)
		}
	}
}

func TestAtMostOnceExecution(t *testing.T) {
	// Heavy duplication: the server must execute each transaction once.
	net := memnet.New(memnet.Config{DuplicateRate: 0.8, Seed: 9})
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	var mu sync.Mutex
	counts := map[string]int{}
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		mu.Lock()
		counts[string(req)]++
		mu.Unlock()
		return req, 0
	})
	defer srv.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()

	for i := 0; i < 10; i++ {
		if _, err := cl.Call(srv.Addr(), []byte(fmt.Sprintf("tx%d", i))); err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
	}
	// Allow trailing duplicates to drain, then verify single execution.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for k, n := range counts {
		if n != 1 {
			t.Fatalf("request %q executed %d times", k, n)
		}
	}
}

func TestCallTimesOutWithoutServer(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	cs := newStack(t, net)
	c := cfg(cs)
	c.MaxRetries = 3
	cl, _ := NewClient(c)
	defer cl.Close()
	if _, err := cl.Call(12345, []byte("void")); err == nil {
		t.Fatal("call into the void succeeded")
	}
}

func TestForwardRequest(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	s1, s2, cs := newStack(t, net), newStack(t, net), newStack(t, net)
	// Backend actually answers.
	backend, _ := NewServer(cfg(s2), 0, func(req []byte) ([]byte, flip.Address) {
		return append([]byte("backend:"), req...), 0
	})
	defer backend.Close()
	// Frontend forwards everything to the backend.
	front, _ := NewServer(cfg(s1), 0, func(req []byte) ([]byte, flip.Address) {
		return nil, backend.Addr()
	})
	defer front.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()

	reply, err := cl.Call(front.Addr(), []byte("work"))
	if err != nil {
		t.Fatalf("forwarded call: %v", err)
	}
	if string(reply) != "backend:work" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestConcurrentCalls(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		return req, 0
	})
	defer srv.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := []byte(fmt.Sprintf("c%d", i))
			reply, err := cl.Call(srv.Addr(), req)
			if err == nil && !bytes.Equal(reply, req) {
				err = fmt.Errorf("reply %q for %q", reply, req)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestClosedClientFailsPending(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	cs := newStack(t, net)
	cl, _ := NewClient(cfg(cs))
	done := make(chan error, 1)
	go func() {
		_, err := cl.Call(999, []byte("hang"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cl.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never failed")
	}
	if _, err := cl.Call(999, nil); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestServerCloseStopsServing(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) { return req, 0 })
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()
	if _, err := cl.Call(srv.Addr(), []byte("a")); err != nil {
		t.Fatalf("pre-close call: %v", err)
	}
	srv.Close()
	c2 := cfg(cs)
	_ = c2
	clFast, _ := NewClient(Config{Stack: cs, Clock: sim.NewRealClock(), RetryInterval: 10 * time.Millisecond, MaxRetries: 3})
	defer clFast.Close()
	if _, err := clFast.Call(srv.Addr(), []byte("b")); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

func TestHeaderCodecRoundTrip(t *testing.T) {
	f := func(typ uint8, txn uint32, replyTo uint64, body []byte) bool {
		if typ == 0 {
			typ = 1
		}
		h := header{typ: pktType(typ), txn: txn, replyTo: flip.Address(replyTo)}
		got, payload, err := decode(encode(h, body))
		if err != nil {
			return false
		}
		return got == h && bytes.Equal(payload, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsShort(t *testing.T) {
	if _, _, err := decode(make([]byte, HeaderSize-1)); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	srv, _ := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) { return req, 0 })
	defer srv.Close()
	cl, _ := NewClient(cfg(cs))
	defer cl.Close()
	big := make([]byte, 8000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	reply, err := cl.Call(srv.Addr(), big)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !bytes.Equal(reply, big) {
		t.Fatal("large payload corrupted")
	}
}

// TestCallContextCancelStopsRetransmission is the regression test for the
// per-call deadline story: when the caller's context expires mid-retransmit,
// the pending transaction is withdrawn — the retry timer stops, retransmission
// traffic ceases, and no goroutine lingers blocked on the reply.
func TestCallContextCancelStopsRetransmission(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)

	// A black hole: receives requests, counts them, never replies.
	var reqs atomic.Uint64
	hole := ss.AllocAddress()
	ss.Register(hole, func(m flip.Message) {
		if h, _, err := decode(m.Payload); err == nil && h.typ == ptRequest {
			reqs.Add(1)
		}
	})

	cl, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.CallContext(ctx, hole, []byte("into the void"))
		done <- err
	}()
	// Let at least two retransmission rounds happen, then cancel.
	deadline := time.Now().Add(2 * time.Second)
	for reqs.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if reqs.Load() < 3 {
		t.Fatalf("only %d requests reached the server", reqs.Load())
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CallContext returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("CallContext did not return after cancellation")
	}
	// No retransmissions after the withdrawal: the retry timer is dead.
	time.Sleep(3 * cfg(cs).RetryInterval)
	settled := reqs.Load()
	time.Sleep(5 * cfg(cs).RetryInterval)
	if got := reqs.Load(); got != settled {
		t.Fatalf("retransmissions continued after cancel: %d -> %d", settled, got)
	}
	// The client is still usable, and the pending table holds no corpse.
	cl.mu.Lock()
	pending := len(cl.pending)
	cl.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d pending calls after cancellation", pending)
	}
}

// TestConcurrentServerDoesNotBlockDelivery: with Concurrent set, a handler
// that itself waits for another inbound packet completes instead of
// deadlocking the stack's delivery goroutine.
func TestConcurrentServerDoesNotBlockDelivery(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)

	c := cfg(ss)
	c.Concurrent = true
	unblock := make(chan struct{})
	inner, err := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		close(unblock)
		return []byte("inner"), 0
	})
	if err != nil {
		t.Fatalf("inner server: %v", err)
	}
	defer inner.Close()
	outer, err := NewServer(c, 0, func(req []byte) ([]byte, flip.Address) {
		// Block until the inner handler — reached over the SAME stack's
		// delivery path — has run. With a synchronous server this would
		// deadlock on a remote-to-remote deployment; concurrent handlers
		// must survive it.
		<-unblock
		return []byte("outer"), 0
	})
	if err != nil {
		t.Fatalf("outer server: %v", err)
	}
	defer outer.Close()

	clOuter, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer clOuter.Close()
	clInner, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer clInner.Close()

	outerDone := make(chan error, 1)
	go func() {
		_, err := clOuter.Call(outer.Addr(), []byte("o"))
		outerDone <- err
	}()
	// The outer handler is now (soon) blocked; the inner call must still
	// get through the same server stack.
	if _, err := clInner.Call(inner.Addr(), []byte("i")); err != nil {
		t.Fatalf("inner call: %v", err)
	}
	select {
	case err := <-outerDone:
		if err != nil {
			t.Fatalf("outer call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("outer call never completed")
	}
}

// TestForwardRewrite: a forwarding handler that returns a non-nil reply
// replaces the request payload — the backend sees the rewritten bytes and
// the client gets the backend's reply.
func TestForwardRewrite(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	fs, bs, cs := newStack(t, net), newStack(t, net), newStack(t, net)

	backend, err := NewServer(cfg(bs), 0, func(req []byte) ([]byte, flip.Address) {
		return append([]byte("saw:"), req...), 0
	})
	if err != nil {
		t.Fatalf("backend: %v", err)
	}
	defer backend.Close()
	front, err := NewServer(cfg(fs), 0, func(req []byte) ([]byte, flip.Address) {
		return append([]byte("stamped+"), req...), backend.Addr()
	})
	if err != nil {
		t.Fatalf("front: %v", err)
	}
	defer front.Close()

	cl, err := NewClient(cfg(cs))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer cl.Close()
	reply, err := cl.Call(front.Addr(), []byte("x"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "saw:stamped+x" {
		t.Fatalf("reply = %q, want %q", reply, "saw:stamped+x")
	}
}

// TestReplyCachePerTransaction: the at-most-once cache is keyed by (client,
// txn), so a retransmission of an OLD transaction must be answered from the
// cache even after the same client completed a NEWER one — the single-slot
// thrash the LRU replaces.
func TestReplyCachePerTransaction(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss, cs := newStack(t, net), newStack(t, net)
	var executions atomic.Uint64
	srv, err := NewServer(cfg(ss), 0, func(req []byte) ([]byte, flip.Address) {
		executions.Add(1)
		return append([]byte("r:"), req...), 0
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	// Drive the wire protocol directly so the duplicate is under test
	// control: a client address that records replies.
	clientAddr := cs.AllocAddress()
	type rep struct {
		txn     uint32
		payload []byte
	}
	replies := make(chan rep, 16)
	cs.Register(clientAddr, func(m flip.Message) {
		if txn, payload, ok := DecodeReply(m.Payload); ok {
			replies <- rep{txn: txn, payload: payload}
		}
	})
	defer cs.Unregister(clientAddr)

	send := func(txn uint32, body string) {
		if err := cs.Send(clientAddr, srv.Addr(), EncodeRequest(txn, clientAddr, []byte(body))); err != nil {
			t.Fatalf("send txn %d: %v", txn, err)
		}
	}
	recv := func(wantTxn uint32, wantBody string) {
		t.Helper()
		select {
		case r := <-replies:
			if r.txn != wantTxn || string(r.payload) != wantBody {
				t.Fatalf("reply = txn %d %q, want txn %d %q", r.txn, r.payload, wantTxn, wantBody)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply for txn %d", wantTxn)
		}
	}

	send(1, "a")
	recv(1, "r:a")
	send(2, "b") // a newer transaction from the same client
	recv(2, "r:b")
	send(1, "a") // retransmission of the OLD transaction
	recv(1, "r:a")
	if got := executions.Load(); got != 2 {
		t.Fatalf("handler executed %d times, want 2 (the txn-1 retransmission must hit the cache)", got)
	}
}

// TestConcurrentPoolBounded: Concurrent mode must cap handler parallelism at
// MaxConcurrent — a burst beyond the cap queues or sheds (and retransmits),
// never spawns unbounded goroutines — while every call still completes.
func TestConcurrentPoolBounded(t *testing.T) {
	net := memnet.NewReliable()
	defer net.Close()
	ss := newStack(t, net)

	const cap = 4
	var (
		running atomic.Int64
		peak    atomic.Int64
	)
	gate := make(chan struct{})
	scfg := cfg(ss)
	scfg.Concurrent = true
	scfg.MaxConcurrent = cap
	srv, err := NewServer(scfg, 0, func(req []byte) ([]byte, flip.Address) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-gate
		running.Add(-1)
		return req, 0
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	const calls = 32
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := newStack(t, net)
			cl, err := NewClient(cfg(cs))
			if err != nil {
				errs[i] = err
				return
			}
			defer cl.Close()
			_, errs[i] = cl.Call(srv.Addr(), []byte{byte(i)})
		}()
	}
	// Let the burst saturate the pool, then release the handlers.
	time.Sleep(300 * time.Millisecond)
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if p := peak.Load(); p > cap {
		t.Fatalf("handler parallelism peaked at %d, cap is %d", p, cap)
	}
	if p := peak.Load(); p == 0 {
		t.Fatal("no handler ever ran")
	}
}
