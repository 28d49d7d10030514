package core

import (
	"fmt"
	"testing"
	"time"

	"amoeba/internal/netw/memnet"
)

// pipeline fires count concurrent sends from node i with numbered payloads
// and returns the completion channels in submission order.
func (g *group) pipeline(i, count int) []chan error {
	dones := make([]chan error, count)
	for n := 0; n < count; n++ {
		dones[n] = g.sendAsync(i, []byte(fmt.Sprintf("m%03d", n)))
	}
	return dones
}

// requireFIFO asserts that the node's data deliveries from each sender carry
// strictly increasing payload numbers with no duplicates or gaps.
func requireFIFO(t *testing.T, data []Delivery, sender MemberID, want int) {
	t.Helper()
	next := 0
	for _, d := range data {
		if d.Sender != sender {
			continue
		}
		if got := fmt.Sprintf("m%03d", next); string(d.Payload) != got {
			t.Fatalf("sender %d delivery %d: payload %q, want %q (FIFO violated)", sender, next, d.Payload, got)
		}
		next++
	}
	if next != want {
		t.Fatalf("sender %d: delivered %d messages, want %d", sender, next, want)
	}
}

// TestPipelinedSendsCoalesceAndStayFIFO drives a window of concurrent sends
// through one member: the sends must coalesce into multi-message batch
// requests at the sequencer (amortisation actually happening, not just
// configured) while every member delivers the same totally-ordered,
// per-sender-FIFO stream.
func TestPipelinedSendsCoalesceAndStayFIFO(t *testing.T) {
	const msgs = 48
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) {
		c.SendWindow = 2
		c.MaxBatch = 8
	})
	dones := g.pipeline(1, msgs)
	for n, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("send %d: %v", n, err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("send %d timed out", n)
		}
	}
	sender := g.nodes[1].ep.Info().Self
	for _, nd := range g.nodes {
		data := dataOf(nd.waitData(msgs))
		requireFIFO(t, data, sender, msgs)
	}
	st := g.nodes[0].ep.Stats()
	if st.OrderedBatches == 0 || st.MaxBatchMsgs < 2 {
		t.Fatalf("no batches formed: %+v", st)
	}
	if st.MaxBatchMsgs > 8 {
		t.Fatalf("batch exceeded MaxBatch: %d", st.MaxBatchMsgs)
	}
	upTo := g.nodes[0].ep.Info().NextSeq - 1
	requireSameOrder(t, g.nodes, upTo)
}

// TestPipelinedSendsUnderLoss runs the same pipelined workload over a lossy,
// duplicating network: batch broadcasts get dropped and NAK-refetched as
// units, and the guarantees must hold regardless.
func TestPipelinedSendsUnderLoss(t *testing.T) {
	const msgs = 40
	g := newGroup(t, 3, memnet.Config{DropRate: 0.05, DuplicateRate: 0.03, Seed: 42}, func(c *Config) {
		c.SendWindow = 3
		c.MaxBatch = 6
	})
	dones := g.pipeline(2, msgs)
	for n, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("send %d: %v", n, err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("send %d timed out", n)
		}
	}
	sender := g.nodes[2].ep.Info().Self
	for _, nd := range g.nodes {
		requireFIFO(t, dataOf(nd.waitData(msgs)), sender, msgs)
	}
	upTo := g.nodes[0].ep.Info().NextSeq - 1
	requireSameOrder(t, g.nodes, upTo)
}

// TestBatchedResilienceAcksOnce checks the resilience path with batching: a
// batch travels as ONE tentative, collects acks as a unit, and its messages
// become deliverable only on the accept — r crashes may not lose any
// completed send, batched or not.
func TestBatchedResilienceAcksOnce(t *testing.T) {
	const msgs = 24
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) {
		c.Resilience = 1
		c.SendWindow = 2
		c.MaxBatch = 6
	})
	dones := g.pipeline(1, msgs)
	for n, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("send %d: %v", n, err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("send %d timed out", n)
		}
	}
	sender := g.nodes[1].ep.Info().Self
	for _, nd := range g.nodes {
		requireFIFO(t, dataOf(nd.waitData(msgs)), sender, msgs)
	}
	st := g.nodes[0].ep.Stats()
	if st.OrderedBatches == 0 {
		t.Fatalf("no batches formed under resilience: %+v", st)
	}
	// One ack round per batch, not per message: the designated acker's
	// AcksSent must stay well below the message count.
	acker := g.nodes[1].ep.Stats().AcksSent + g.nodes[2].ep.Stats().AcksSent
	if acker >= msgs {
		t.Fatalf("acks (%d) not amortised across batches (%d msgs, %d batches)", acker, msgs, st.OrderedBatches)
	}
	upTo := g.nodes[0].ep.Info().NextSeq - 1
	requireSameOrder(t, g.nodes, upTo)
}

// TestPipelinedWindowSurvivesSequencerFailover crashes the sequencer while a
// sender has a full pipelined window in flight. The recovery must re-home
// the window on the new sequencer without reordering or duplicating: every
// completed send appears exactly once, in submission order, at every
// survivor. Resilience 1 guarantees no completed send is lost to the single
// crash.
func TestPipelinedWindowSurvivesSequencerFailover(t *testing.T) {
	const msgs = 30
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) {
		c.Resilience = 1
		c.SendWindow = 4
		c.MaxBatch = 4
		c.AutoReset = true
		c.MinSurvivors = 2
	})
	// Keep a continuous pipelined stream going from node 2.
	dones := g.pipeline(2, msgs)
	// Let some complete, then kill the sequencer mid-window.
	g.nodes[2].waitData(4)
	g.nodes[0].crash()
	for n, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("send %d: %v", n, err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("send %d timed out (window lost across failover)", n)
		}
	}
	sender := g.nodes[2].ep.Info().Self
	survivors := g.nodes[1:]
	for _, nd := range survivors {
		requireFIFO(t, dataOf(nd.waitData(msgs)), sender, msgs)
	}
	upTo := g.nodes[1].ep.Info().NextSeq - 1
	requireSameOrder(t, survivors, upTo)
}

// TestSequencerSelfSendsBatch: a member co-located with the sequencer must
// coalesce its own bursts too. Self-sends are ordered without a network round
// trip, so without the one-drain-cycle deferral the window never fills and
// every message costs its own multicast; with it, a SendMany burst forms
// multi-message batch entries exactly like a remote member's — observable in
// the rising batch counters.
func TestSequencerSelfSendsBatch(t *testing.T) {
	const msgs = 48
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) {
		c.SendWindow = 2
		c.MaxBatch = 8
	})
	seq := g.nodes[0] // the creator sequences the group
	if !seq.ep.Info().IsSequencer {
		t.Fatal("node 0 is not the sequencer")
	}
	payloads := make([][]byte, msgs)
	dones := make([]func(error), msgs)
	errs := make(chan error, msgs)
	for n := 0; n < msgs; n++ {
		payloads[n] = []byte(fmt.Sprintf("m%03d", n))
		dones[n] = func(e error) { errs <- e }
	}
	seq.ep.SendMany(payloads, dones)
	for n := 0; n < msgs; n++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("send %d: %v", n, err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("send %d timed out", n)
		}
	}
	sender := seq.ep.Info().Self
	for _, nd := range g.nodes {
		data := dataOf(nd.waitData(msgs))
		requireFIFO(t, data, sender, msgs)
	}
	st := seq.ep.Stats()
	if st.OrderedBatches == 0 || st.MaxBatchMsgs < 2 {
		t.Fatalf("sequencer self-sends formed no batches: %+v", st)
	}
	if st.MaxBatchMsgs > 8 {
		t.Fatalf("batch exceeded MaxBatch: %d", st.MaxBatchMsgs)
	}
	upTo := seq.ep.Info().NextSeq - 1
	requireSameOrder(t, g.nodes, upTo)
}

// TestSequencerSelfSendsBatchWithResilience: the deferral must compose with
// the tentative/ack round — a resilient self-send burst still batches, and
// no send completes before its batch is stored remotely.
func TestSequencerSelfSendsBatchWithResilience(t *testing.T) {
	const msgs = 24
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) {
		c.Resilience = 1
		c.SendWindow = 2
		c.MaxBatch = 8
	})
	seq := g.nodes[0]
	payloads := make([][]byte, msgs)
	errs := make(chan error, msgs)
	dones := make([]func(error), msgs)
	for n := 0; n < msgs; n++ {
		payloads[n] = []byte(fmt.Sprintf("m%03d", n))
		dones[n] = func(e error) { errs <- e }
	}
	seq.ep.SendMany(payloads, dones)
	for n := 0; n < msgs; n++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("send %d: %v", n, err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("send %d timed out", n)
		}
	}
	sender := seq.ep.Info().Self
	for _, nd := range g.nodes {
		requireFIFO(t, dataOf(nd.waitData(msgs)), sender, msgs)
	}
	if st := seq.ep.Stats(); st.OrderedBatches == 0 {
		t.Fatalf("resilient self-sends formed no batches: %+v", st)
	}
}
