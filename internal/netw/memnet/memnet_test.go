package memnet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"amoeba/internal/netw"
)

// collector accumulates frames delivered to a station.
type collector struct {
	mu     sync.Mutex
	frames []netw.Frame
	notify chan struct{}
}

func newCollector(s netw.Station) *collector {
	c := &collector{notify: make(chan struct{}, 1024)}
	s.SetHandler(func(f netw.Frame) {
		c.mu.Lock()
		c.frames = append(c.frames, f)
		c.mu.Unlock()
		select {
		case c.notify <- struct{}{}:
		default:
		}
	})
	return c
}

func (c *collector) waitFor(t *testing.T, n int) []netw.Frame {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		c.mu.Lock()
		if len(c.frames) >= n {
			out := make([]netw.Frame, len(c.frames))
			copy(out, c.frames)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.notify:
		case <-deadline:
			c.mu.Lock()
			got := len(c.frames)
			c.mu.Unlock()
			t.Fatalf("timed out waiting for %d frames, have %d", n, got)
		}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func TestUnicastDelivery(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)
	newCollector(a)

	if err := a.Send(b.ID(), []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	frames := cb.waitFor(t, 1)
	if frames[0].Src != a.ID() || frames[0].Dst != b.ID() {
		t.Fatalf("frame addressing = %+v", frames[0])
	}
	if !bytes.Equal(frames[0].Payload, []byte("hello")) {
		t.Fatalf("payload = %q", frames[0].Payload)
	}
}

func TestUnicastFIFOPerPair(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)

	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(b.ID(), []byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	frames := cb.waitFor(t, count)
	for i := 0; i < count; i++ {
		if frames[i].Payload[0] != byte(i) {
			t.Fatalf("frame %d out of order: got %d", i, frames[i].Payload[0])
		}
	}
}

func TestMulticastReachesOnlySubscribers(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	c, _ := n.Attach("c")
	cb := newCollector(b)
	cc := newCollector(c)

	const ch netw.ChannelID = 7
	b.Subscribe(ch)

	if err := a.Multicast(ch, []byte("mc")); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	frames := cb.waitFor(t, 1)
	if frames[0].Dst != netw.Broadcast || frames[0].Channel != ch {
		t.Fatalf("multicast frame = %+v", frames[0])
	}
	// c never subscribed; give the network a moment and confirm nothing
	// arrived.
	time.Sleep(20 * time.Millisecond)
	if cc.count() != 0 {
		t.Fatalf("unsubscribed station received %d frames", cc.count())
	}
}

func TestMulticastExcludesSender(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	ca := newCollector(a)
	cb := newCollector(b)

	const ch netw.ChannelID = 3
	a.Subscribe(ch)
	b.Subscribe(ch)

	if err := a.Multicast(ch, []byte("x")); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	cb.waitFor(t, 1)
	time.Sleep(20 * time.Millisecond)
	if ca.count() != 0 {
		t.Fatal("sender received its own multicast")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)

	const ch netw.ChannelID = 9
	b.Subscribe(ch)
	_ = a.Multicast(ch, []byte("1"))
	cb.waitFor(t, 1)
	b.Unsubscribe(ch)
	_ = a.Multicast(ch, []byte("2"))
	time.Sleep(20 * time.Millisecond)
	if cb.count() != 1 {
		t.Fatalf("received %d frames after unsubscribe, want 1", cb.count())
	}
}

func TestFrameTooLarge(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	big := make([]byte, netw.MTU+1)
	if err := a.Send(b.ID(), big); err == nil {
		t.Fatal("oversize Send succeeded")
	}
	if err := a.Multicast(1, big); err == nil {
		t.Fatal("oversize Multicast succeeded")
	}
	ok := make([]byte, netw.MTU)
	if err := a.Send(b.ID(), ok); err != nil {
		t.Fatalf("MTU-size Send failed: %v", err)
	}
}

func TestClosedStationRejectsSendsAndDropsInbound(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := b.Send(a.ID(), []byte("x")); err == nil {
		t.Fatal("send on closed station succeeded")
	}
	_ = a.Send(b.ID(), []byte("y"))
	time.Sleep(20 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatal("closed station received a frame")
	}
	// Closing twice is fine.
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSendToUnknownStationIsDropped(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	// No station 42: the frame vanishes, like an Ethernet frame to an
	// absent MAC.
	if err := a.Send(42, []byte("x")); err != nil {
		t.Fatalf("Send to absent station returned error: %v", err)
	}
}

func TestDropInjection(t *testing.T) {
	n := New(Config{DropRate: 1.0, Seed: 1})
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)
	for i := 0; i < 50; i++ {
		_ = a.Send(b.ID(), []byte("x"))
	}
	time.Sleep(20 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatalf("DropRate=1 delivered %d frames", cb.count())
	}
	if n.Dropped() != 50 {
		t.Fatalf("Dropped = %d, want 50", n.Dropped())
	}
}

func TestDuplicateInjection(t *testing.T) {
	n := New(Config{DuplicateRate: 1.0, Seed: 1})
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)
	_ = a.Send(b.ID(), []byte("x"))
	frames := cb.waitFor(t, 2)
	if len(frames) < 2 {
		t.Fatal("duplicate not delivered")
	}
}

func TestCorruptInjectionFlipsExactlyOneBit(t *testing.T) {
	n := New(Config{CorruptRate: 1.0, Seed: 1})
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	_ = a.Send(b.ID(), append([]byte(nil), orig...))
	frames := cb.waitFor(t, 1)
	diff := 0
	for i := range orig {
		if frames[0].Payload[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d bytes, want 1", diff)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	n := New(Config{RingSize: 4, Seed: 1})
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	// No handler on b: install one that blocks until released so the ring
	// fills.
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	b.SetHandler(func(netw.Frame) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})
	for i := 0; i < 20; i++ {
		_ = a.Send(b.ID(), []byte{byte(i)})
	}
	<-started
	if n.Dropped() == 0 {
		t.Fatal("no frames dropped despite tiny ring")
	}
	close(release)
	n.Close()
}

func TestReceiverOwnsPayloadCopy(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)
	buf := []byte("mutate-me")
	_ = a.Send(b.ID(), buf)
	frames := cb.waitFor(t, 1)
	buf[0] = 'X' // sender reuses its buffer
	if frames[0].Payload[0] != 'm' {
		t.Fatal("receiver payload aliases sender buffer")
	}
}

func TestConcurrentSendersNoRace(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	recv, _ := n.Attach("recv")
	cr := newCollector(recv)
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		s, _ := n.Attach("s")
		newCollector(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				_ = s.Send(recv.ID(), []byte{byte(j)})
			}
		}()
	}
	wg.Wait()
	cr.waitFor(t, senders*per)
}

func TestReorderInjectionSwapsAdjacentFrames(t *testing.T) {
	n := New(Config{ReorderRate: 1.0, Seed: 7})
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)
	// With ReorderRate=1 every frame is held until the next one arrives:
	// frame 0 is held, frame 1 arrives and is delivered first with frame 0
	// released behind it, frame 2 is held (slot now free), and so on.
	for i := 0; i < 6; i++ {
		_ = a.Send(b.ID(), []byte{byte(i)})
	}
	frames := cb.waitFor(t, 6)
	var got []byte
	for _, f := range frames {
		got = append(got, f.Payload[0])
	}
	want := []byte{1, 0, 3, 2, 5, 4}
	if !bytes.Equal(got, want) {
		t.Fatalf("delivery order = %v, want %v", got, want)
	}
}

func TestSetReorderRateZeroReleasesHeldFrame(t *testing.T) {
	n := New(Config{ReorderRate: 1.0, Seed: 7})
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)
	_ = a.Send(b.ID(), []byte{42}) // held, waiting for a successor
	time.Sleep(10 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatalf("held frame delivered early (%d frames)", cb.count())
	}
	n.SetReorderRate(0)
	frames := cb.waitFor(t, 1)
	if frames[0].Payload[0] != 42 {
		t.Fatalf("released frame payload = %d", frames[0].Payload[0])
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := NewReliable()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	c, _ := n.Attach("c")
	cb := newCollector(b)
	cc := newCollector(c)

	n.Partition(a.ID(), b.ID())
	_ = a.Send(b.ID(), []byte("cut"))
	_ = b.Send(a.ID(), []byte("cut-back"))
	_ = a.Send(c.ID(), []byte("ok"))
	cc.waitFor(t, 1) // the uncut pair still flows
	time.Sleep(20 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatalf("partitioned pair delivered %d frames", cb.count())
	}

	// Multicast honours the cut too: b subscribed but partitioned from a.
	const ch netw.ChannelID = 5
	b.Subscribe(ch)
	c.Subscribe(ch)
	_ = a.Multicast(ch, []byte("mc"))
	cc.waitFor(t, 2)
	time.Sleep(20 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatalf("partitioned subscriber got the multicast")
	}

	n.Heal()
	_ = a.Send(b.ID(), []byte("healed"))
	frames := cb.waitFor(t, 1)
	if string(frames[0].Payload) != "healed" {
		t.Fatalf("post-heal payload = %q", frames[0].Payload)
	}
}

// runFaultScript drives one seeded network through a fixed single-threaded
// transmit sequence and returns the delivery order observed at the receiver
// plus the drop counter — the network's observable fault fingerprint.
func runFaultScript(t *testing.T, cfg Config) ([]byte, uint64) {
	t.Helper()
	n := New(cfg)
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	cb := newCollector(b)
	const frames = 400
	for i := 0; i < frames; i++ {
		_ = a.Send(b.ID(), []byte{byte(i)})
	}
	n.SetReorderRate(0) // flush any frame still held for a swap
	// Every frame was either delivered (maybe twice, maybe reordered) or
	// counted dropped; wait until the books balance.
	deadline := time.After(2 * time.Second)
	for {
		if uint64(cb.count())+n.Dropped() >= frames {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d delivered + %d dropped of %d", cb.count(), n.Dropped(), frames)
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(10 * time.Millisecond) // absorb trailing duplicates
	var got []byte
	cb.mu.Lock()
	for _, f := range cb.frames {
		got = append(got, f.Payload[0])
	}
	cb.mu.Unlock()
	return got, n.Dropped()
}

func TestFaultInjectionDeterministicForFixedSeed(t *testing.T) {
	cfg := Config{DropRate: 0.2, DuplicateRate: 0.1, ReorderRate: 0.3, Seed: 99}
	order1, dropped1 := runFaultScript(t, cfg)
	order2, dropped2 := runFaultScript(t, cfg)
	if !bytes.Equal(order1, order2) || dropped1 != dropped2 {
		t.Fatalf("same seed diverged: %d vs %d frames, %d vs %d dropped",
			len(order1), len(order2), dropped1, dropped2)
	}
	// And a different seed must actually change the fingerprint — the test
	// would otherwise pass on a network that ignores its seed entirely.
	cfg.Seed = 100
	order3, dropped3 := runFaultScript(t, cfg)
	if bytes.Equal(order1, order3) && dropped1 == dropped3 {
		t.Fatal("different seeds produced identical fault fingerprints")
	}
}
