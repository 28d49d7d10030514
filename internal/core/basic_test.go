package core

import (
	"fmt"
	"testing"
	"time"

	"amoeba/internal/netw/memnet"
)

func TestCreateGroupDeliversOwnJoin(t *testing.T) {
	g := newGroup(t, 1, memnet.Config{}, nil)
	ds := g.nodes[0].waitDeliveries(1)
	if ds[0].Kind != KindJoin || ds[0].Sender != 0 || ds[0].Seq != 1 {
		t.Fatalf("first delivery = %+v", ds[0])
	}
	info := g.nodes[0].ep.Info()
	if !info.IsSequencer || info.Self != 0 || len(info.Members) != 1 {
		t.Fatalf("info = %+v", info)
	}
}

func TestJoinersSeeOrderedJoins(t *testing.T) {
	g := newGroup(t, 4, memnet.Config{}, nil)
	// Joins occupy seqs 1..4; every node must agree on the overlap.
	requireSameOrder(t, g.nodes, 4)
	for i, nd := range g.nodes {
		info := nd.ep.Info()
		if len(info.Members) != 4 {
			t.Fatalf("node %d sees %d members", i, len(info.Members))
		}
		if info.Self != MemberID(i) {
			t.Fatalf("node %d has id %d", i, info.Self)
		}
	}
}

func TestSendPBDeliversEverywhereInOrder(t *testing.T) {
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) { c.Method = MethodPB })
	for i := 0; i < 5; i++ {
		if err := g.send(1, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for _, nd := range g.nodes {
		data := nd.waitData(5)
		for i := 0; i < 5; i++ {
			if string(data[i].Payload) != fmt.Sprintf("msg-%d", i) {
				t.Fatalf("data[%d] = %q", i, data[i].Payload)
			}
			if data[i].Sender != 1 {
				t.Fatalf("data[%d].Sender = %d", i, data[i].Sender)
			}
		}
	}
	requireSameOrder(t, g.nodes, 3+5)
}

func TestSendBBDeliversEverywhereInOrder(t *testing.T) {
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) { c.Method = MethodBB })
	for i := 0; i < 5; i++ {
		if err := g.send(2, []byte(fmt.Sprintf("bb-%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for _, nd := range g.nodes {
		data := nd.waitData(5)
		for i := range data {
			if string(data[i].Payload) != fmt.Sprintf("bb-%d", i) {
				t.Fatalf("data[%d] = %q", i, data[i].Payload)
			}
		}
	}
	requireSameOrder(t, g.nodes, 3+5)
}

func TestSequencerSelfSendFastPath(t *testing.T) {
	g := newGroup(t, 2, memnet.Config{}, nil)
	if err := g.send(0, []byte("from-sequencer")); err != nil {
		t.Fatalf("send: %v", err)
	}
	data := g.nodes[1].waitData(1)
	if string(data[0].Payload) != "from-sequencer" || data[0].Sender != 0 {
		t.Fatalf("delivery = %+v", data[0])
	}
}

func TestAutoMethodHandlesMixedSizes(t *testing.T) {
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) { c.BBThreshold = 256 })
	payloads := [][]byte{
		[]byte("small"),
		make([]byte, 1000), // BB, single fragment
		make([]byte, 8000), // BB, fragmented
		[]byte("small-again"),
	}
	for i, p := range payloads {
		if len(p) > 64 {
			for j := range p {
				p[j] = byte(i + j)
			}
		}
		if err := g.send(1, p); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for _, nd := range g.nodes {
		data := nd.waitData(len(payloads))
		for i := range payloads {
			if string(data[i].Payload) != string(payloads[i]) {
				t.Fatalf("payload %d mismatch (%d vs %d bytes)", i, len(data[i].Payload), len(payloads[i]))
			}
		}
	}
}

func TestFIFOPerSenderUnderConcurrency(t *testing.T) {
	g := newGroup(t, 3, memnet.Config{}, nil)
	const perSender = 20
	errs := make(chan error, 3*perSender)
	for s := 0; s < 3; s++ {
		s := s
		go func() {
			for i := 0; i < perSender; i++ {
				payload := []byte(fmt.Sprintf("s%d-%d", s, i))
				done := make(chan error, 1)
				g.nodes[s].ep.Send(payload, func(e error) { done <- e })
				errs <- <-done
			}
		}()
	}
	for i := 0; i < 3*perSender; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("send: %v", err)
			}
		case <-time.After(testTimeout):
			t.Fatal("sends timed out")
		}
	}
	for _, nd := range g.nodes {
		data := nd.waitData(3 * perSender)
		// FIFO per sender: for each sender the per-sender indices
		// appear in order.
		next := map[MemberID]int{}
		for _, d := range data {
			var s, i int
			if _, err := fmt.Sscanf(string(d.Payload), "s%d-%d", &s, &i); err != nil {
				t.Fatalf("bad payload %q", d.Payload)
			}
			if i != next[d.Sender] {
				t.Fatalf("sender %d out of FIFO: got %d want %d", d.Sender, i, next[d.Sender])
			}
			next[d.Sender]++
		}
	}
	// And the total order is identical.
	last := g.nodes[0].waitData(3 * perSender)[3*perSender-1].Seq
	requireSameOrder(t, g.nodes, last)
}

func TestTotalOrderUnderLossDupsAndCorruption(t *testing.T) {
	g := newGroup(t, 3, memnet.Config{DropRate: 0.15, DuplicateRate: 0.1, CorruptRate: 0.05, Seed: 42}, nil)
	const perSender = 15
	done := make(chan error, 3*perSender)
	for s := 0; s < 3; s++ {
		s := s
		go func() {
			for i := 0; i < perSender; i++ {
				ch := make(chan error, 1)
				g.nodes[s].ep.Send([]byte(fmt.Sprintf("s%d-%d", s, i)), func(e error) { ch <- e })
				done <- <-ch
			}
		}()
	}
	for i := 0; i < 3*perSender; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("send: %v", err)
			}
		case <-time.After(testTimeout):
			t.Fatal("sends timed out under loss")
		}
	}
	last := g.nodes[0].waitData(3 * perSender)[3*perSender-1].Seq
	requireSameOrder(t, g.nodes, last)
	// Loss must actually have happened for this test to mean anything.
	if g.net.Dropped() == 0 {
		t.Fatal("fault injection produced no drops")
	}
}

func TestLargeMessagesUnderLoss(t *testing.T) {
	g := newGroup(t, 2, memnet.Config{DropRate: 0.1, Seed: 7}, nil)
	payload := make([]byte, 8000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	for i := 0; i < 5; i++ {
		if err := g.send(1, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	data := g.nodes[0].waitData(5)
	for i := range data {
		if len(data[i].Payload) != len(payload) {
			t.Fatalf("message %d truncated: %d bytes", i, len(data[i].Payload))
		}
		for j := range payload {
			if data[i].Payload[j] != payload[j] {
				t.Fatalf("message %d corrupt at %d", i, j)
			}
		}
	}
}

func TestOversizedSendRejected(t *testing.T) {
	g := newGroup(t, 1, memnet.Config{}, func(c *Config) { c.MaxMessage = 100 })
	err := g.send(0, make([]byte, 101))
	if err == nil {
		t.Fatal("oversized send accepted")
	}
}

func TestInfoReflectsGroupState(t *testing.T) {
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) { c.Resilience = 1 })
	_ = g.send(0, []byte("x"))
	info := g.nodes[2].ep.Info()
	if info.Group != g.addr {
		t.Fatalf("group addr = %v", info.Group)
	}
	if info.Resilience != 1 {
		t.Fatalf("resilience = %d", info.Resilience)
	}
	if info.Sequencer != 0 || info.IsSequencer {
		t.Fatalf("sequencer fields wrong: %+v", info)
	}
	if len(info.Members) != 3 {
		t.Fatalf("members = %d", len(info.Members))
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	g := newGroup(t, 2, memnet.Config{}, nil)
	g.nodes[1].ep.Close()
	done := make(chan error, 1)
	g.nodes[1].ep.Send([]byte("x"), func(e error) { done <- e })
	if err := <-done; err == nil {
		t.Fatal("send on closed endpoint succeeded")
	}
}

func TestHistoryStaysBounded(t *testing.T) {
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) { c.HistorySize = 16 })
	for i := 0; i < 100; i++ {
		if err := g.send(1, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	g.nodes[2].waitData(100)
	for i, nd := range g.nodes {
		nd.ep.mu.Lock()
		n := nd.ep.hist.len()
		nd.ep.mu.Unlock()
		if n > 16 {
			t.Fatalf("node %d history holds %d entries, cap 16", i, n)
		}
	}
}

func TestManyMembersDeliverEverything(t *testing.T) {
	g := newGroup(t, 8, memnet.Config{}, nil)
	const msgs = 10
	for i := 0; i < msgs; i++ {
		if err := g.send(i%8, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	last := g.nodes[0].waitData(msgs)[msgs-1].Seq
	requireSameOrder(t, g.nodes, last)
}
