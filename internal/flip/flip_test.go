package flip

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"amoeba/internal/netw/memnet"
	"amoeba/internal/sim"
)

// rig wires n FLIP stacks onto one memnet network.
type rig struct {
	net    *memnet.Network
	stacks []*Stack
}

func newRig(t *testing.T, n int, cfg memnet.Config) *rig {
	t.Helper()
	r := &rig{net: memnet.New(cfg)}
	clock := sim.NewRealClock()
	for i := 0; i < n; i++ {
		st, err := r.net.Attach("node")
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		r.stacks = append(r.stacks, NewStack(Config{
			Station:        st,
			Clock:          clock,
			LocateInterval: 5 * time.Millisecond,
		}))
	}
	t.Cleanup(r.net.Close)
	return r
}

// inbox collects messages for one registered address.
type inbox struct {
	mu   sync.Mutex
	msgs []Message
	ch   chan struct{}
}

func newInbox() *inbox { return &inbox{ch: make(chan struct{}, 1024)} }

func (in *inbox) handler() Handler {
	return func(m Message) {
		in.mu.Lock()
		in.msgs = append(in.msgs, m)
		in.mu.Unlock()
		select {
		case in.ch <- struct{}{}:
		default:
		}
	}
}

func (in *inbox) wait(t *testing.T, n int) []Message {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		in.mu.Lock()
		if len(in.msgs) >= n {
			out := make([]Message, len(in.msgs))
			copy(out, in.msgs)
			in.mu.Unlock()
			return out
		}
		in.mu.Unlock()
		select {
		case <-in.ch:
		case <-deadline:
			in.mu.Lock()
			got := len(in.msgs)
			in.mu.Unlock()
			t.Fatalf("timeout waiting for %d messages, have %d", n, got)
		}
	}
}

func (in *inbox) count() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.msgs)
}

func TestUnicastWithLocate(t *testing.T) {
	r := newRig(t, 2, memnet.Config{})
	a, b := r.stacks[0], r.stacks[1]
	addrA, addrB := a.AllocAddress(), b.AllocAddress()
	in := newInbox()
	a.Register(addrA, func(Message) {})
	b.Register(addrB, in.handler())

	// No route for addrB yet: the stack must locate it first.
	if err := a.Send(addrA, addrB, []byte("payload")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msgs := in.wait(t, 1)
	if msgs[0].Src != addrA || msgs[0].Dst != addrB {
		t.Fatalf("message addressing = %+v", msgs[0])
	}
	if !bytes.Equal(msgs[0].Payload, []byte("payload")) {
		t.Fatalf("payload = %q", msgs[0].Payload)
	}
	if a.Stats().LocatesSent == 0 {
		t.Fatal("no locate was sent")
	}
}

func TestSecondSendUsesCachedRoute(t *testing.T) {
	r := newRig(t, 2, memnet.Config{})
	a, b := r.stacks[0], r.stacks[1]
	addrA, addrB := a.AllocAddress(), b.AllocAddress()
	in := newInbox()
	a.Register(addrA, func(Message) {})
	b.Register(addrB, in.handler())

	_ = a.Send(addrA, addrB, []byte("1"))
	in.wait(t, 1)
	locates := a.Stats().LocatesSent
	_ = a.Send(addrA, addrB, []byte("2"))
	in.wait(t, 2)
	if a.Stats().LocatesSent != locates {
		t.Fatal("second send re-located a cached address")
	}
}

func TestLocateFailureDropsQueued(t *testing.T) {
	r := newRig(t, 1, memnet.Config{})
	a := r.stacks[0]
	addrA := a.AllocAddress()
	a.Register(addrA, func(Message) {})
	// Destination exists nowhere.
	if err := a.Send(addrA, AddressForName("ghost"), []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	deadline := time.After(2 * time.Second)
	for a.Stats().LocateFailures == 0 {
		select {
		case <-deadline:
			t.Fatal("locate never gave up")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestMulticastDeliversToAllMembersIncludingSender(t *testing.T) {
	r := newRig(t, 3, memnet.Config{})
	group := AddressForName("team")
	inboxes := make([]*inbox, 3)
	addrs := make([]Address, 3)
	for i, st := range r.stacks {
		inboxes[i] = newInbox()
		addrs[i] = st.AllocAddress()
		st.Register(addrs[i], func(Message) {})
		st.JoinGroup(group, inboxes[i].handler())
	}
	if err := r.stacks[0].Multicast(addrs[0], group, []byte("all")); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	for i := range inboxes {
		msgs := inboxes[i].wait(t, 1)
		if msgs[0].Src != addrs[0] || msgs[0].Dst != group {
			t.Fatalf("member %d got %+v", i, msgs[0])
		}
	}
}

func TestMulticastSkipsNonMembers(t *testing.T) {
	r := newRig(t, 3, memnet.Config{})
	group := AddressForName("club")
	a, b, c := r.stacks[0], r.stacks[1], r.stacks[2]
	addrA := a.AllocAddress()
	a.Register(addrA, func(Message) {})
	inB, inC := newInbox(), newInbox()
	b.JoinGroup(group, inB.handler())
	_ = c // c never joins
	cIn := newInbox()
	c.Register(c.AllocAddress(), cIn.handler())

	_ = a.Multicast(addrA, group, []byte("m"))
	inB.wait(t, 1)
	time.Sleep(20 * time.Millisecond)
	if inC.count() != 0 || cIn.count() != 0 {
		t.Fatal("non-member received multicast")
	}
}

func TestLeaveGroupStopsDelivery(t *testing.T) {
	r := newRig(t, 2, memnet.Config{})
	group := AddressForName("g")
	a, b := r.stacks[0], r.stacks[1]
	addrA := a.AllocAddress()
	a.Register(addrA, func(Message) {})
	in := newInbox()
	b.JoinGroup(group, in.handler())
	_ = a.Multicast(addrA, group, []byte("1"))
	in.wait(t, 1)
	b.LeaveGroup(group)
	_ = a.Multicast(addrA, group, []byte("2"))
	time.Sleep(20 * time.Millisecond)
	if in.count() != 1 {
		t.Fatalf("got %d messages after leave, want 1", in.count())
	}
}

func TestLocalLoopbackUnicast(t *testing.T) {
	r := newRig(t, 1, memnet.Config{})
	a := r.stacks[0]
	src, dst := a.AllocAddress(), a.AllocAddress()
	in := newInbox()
	a.Register(src, func(Message) {})
	a.Register(dst, in.handler())
	if err := a.Send(src, dst, []byte("loop")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msgs := in.wait(t, 1)
	if !bytes.Equal(msgs[0].Payload, []byte("loop")) {
		t.Fatalf("payload = %q", msgs[0].Payload)
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	r := newRig(t, 2, memnet.Config{})
	a, b := r.stacks[0], r.stacks[1]
	addrA, addrB := a.AllocAddress(), b.AllocAddress()
	in := newInbox()
	a.Register(addrA, func(Message) {})
	b.Register(addrB, in.handler())

	sizes := []int{0, 1, MaxFragmentPayload - 1, MaxFragmentPayload,
		MaxFragmentPayload + 1, 4096, 8000, 3 * MaxFragmentPayload}
	for _, size := range sizes {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		if err := a.Send(addrA, addrB, payload); err != nil {
			t.Fatalf("Send(%d): %v", size, err)
		}
	}
	msgs := in.wait(t, len(sizes))
	for i, size := range sizes {
		if len(msgs[i].Payload) != size {
			t.Fatalf("message %d: got %d bytes, want %d", i, len(msgs[i].Payload), size)
		}
		for j, v := range msgs[i].Payload {
			if v != byte(j*7) {
				t.Fatalf("message %d corrupted at byte %d", i, j)
			}
		}
	}
}

// TestLocateQueueKeepsOrder sends a burst to an address nobody has located
// yet: the first datagrams queue behind the locate, and a Send that races
// the Here reply must queue behind them instead of overtaking them, or the
// per-receiver FIFO order that memnet gives breaks. Fresh rigs, because the
// race exists only while the first locate is in flight.
func TestLocateQueueKeepsOrder(t *testing.T) {
	const msgs = 64
	for round := 0; round < 20; round++ {
		r := newRig(t, 2, memnet.Config{})
		a, b := r.stacks[0], r.stacks[1]
		addrA, addrB := a.AllocAddress(), b.AllocAddress()
		in := newInbox()
		a.Register(addrA, func(Message) {})
		b.Register(addrB, in.handler())
		for i := 0; i < msgs; i++ {
			if err := a.Send(addrA, addrB, []byte{byte(i)}); err != nil {
				t.Fatalf("Send(%d): %v", i, err)
			}
		}
		for i, m := range in.wait(t, msgs) {
			if int(m.Payload[0]) != i {
				t.Fatalf("round %d: message %d arrived carrying %d", round, i, m.Payload[0])
			}
		}
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	r := newRig(t, 1, memnet.Config{})
	a := r.stacks[0]
	src := a.AllocAddress()
	a.Register(src, func(Message) {})
	if err := a.Send(src, AddressForName("x"), make([]byte, MaxMessageSize+1)); err == nil {
		t.Fatal("oversize send accepted")
	}
	if err := a.Multicast(src, AddressForName("x"), make([]byte, MaxMessageSize+1)); err == nil {
		t.Fatal("oversize multicast accepted")
	}
}

func TestZeroAddressRejected(t *testing.T) {
	r := newRig(t, 1, memnet.Config{})
	a := r.stacks[0]
	if err := a.Send(0, 1, nil); err == nil {
		t.Fatal("zero src accepted")
	}
	if err := a.Send(1, 0, nil); err == nil {
		t.Fatal("zero dst accepted")
	}
}

func TestUnregisteredSourceRejected(t *testing.T) {
	r := newRig(t, 1, memnet.Config{})
	if err := r.stacks[0].Send(42, 43, nil); err == nil {
		t.Fatal("send from unregistered source accepted")
	}
}

func TestGarbledPacketsRejectedByChecksum(t *testing.T) {
	r := newRig(t, 2, memnet.Config{CorruptRate: 1.0, Seed: 3})
	a, b := r.stacks[0], r.stacks[1]
	addrA, addrB := a.AllocAddress(), b.AllocAddress()
	in := newInbox()
	a.Register(addrA, func(Message) {})
	b.Register(addrB, in.handler())
	for i := 0; i < 10; i++ {
		_ = a.Send(addrA, addrB, []byte("data"))
	}
	deadline := time.After(2 * time.Second)
	for b.Stats().Garbled == 0 {
		select {
		case <-deadline:
			t.Fatal("no garbled packets detected despite CorruptRate=1")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if in.count() != 0 {
		t.Fatal("corrupted packet was delivered")
	}
}

func TestClosedStackRejectsSends(t *testing.T) {
	r := newRig(t, 1, memnet.Config{})
	a := r.stacks[0]
	src := a.AllocAddress()
	a.Register(src, func(Message) {})
	a.Close()
	if err := a.Send(src, AddressForName("x"), nil); err == nil {
		t.Fatal("send on closed stack accepted")
	}
}

func TestAllocAddressUniqueAndDeterministic(t *testing.T) {
	r := newRig(t, 2, memnet.Config{})
	a, b := r.stacks[0], r.stacks[1]
	seen := map[Address]bool{}
	for i := 0; i < 100; i++ {
		for _, st := range []*Stack{a, b} {
			addr := st.AllocAddress()
			if addr == 0 || seen[addr] {
				t.Fatalf("duplicate or zero address %v", addr)
			}
			seen[addr] = true
		}
	}
}

func TestAddressForNameStable(t *testing.T) {
	if AddressForName("abc") != AddressForName("abc") {
		t.Fatal("AddressForName not deterministic")
	}
	if AddressForName("abc") == AddressForName("abd") {
		t.Fatal("trivial collision")
	}
	if AddressForName("") == 0 {
		t.Fatal("empty name mapped to zero address")
	}
}

func TestHeaderCodecRoundTrip(t *testing.T) {
	f := func(src, dst uint64, msgID uint32, idx, cnt uint16, body []byte) bool {
		if cnt == 0 {
			cnt = 1
		}
		idx %= cnt
		if len(body) > MaxFragmentPayload {
			body = body[:MaxFragmentPayload]
		}
		h := header{
			typ: ptData, src: Address(src), dst: Address(dst),
			msgID: msgID, fragIndex: idx, fragCount: cnt,
			totalLen: uint32(len(body)),
		}
		pkt := encodePacket(h, body)
		got, payload, err := decodePacket(pkt)
		if err != nil {
			return false
		}
		return got == h && bytes.Equal(payload, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	f := func(flip uint8, pos uint16, body []byte) bool {
		if len(body) > 64 {
			body = body[:64]
		}
		h := header{typ: ptData, src: 1, dst: 2, fragCount: 1, totalLen: uint32(len(body))}
		pkt := encodePacket(h, body)
		if flip == 0 {
			flip = 1
		}
		pkt[int(pos)%len(pkt)] ^= flip
		_, _, err := decodePacket(pkt)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsShortAndBadVersion(t *testing.T) {
	if _, _, err := decodePacket([]byte{1, 2, 3}); err == nil {
		t.Fatal("short packet accepted")
	}
	pkt := encodePacket(header{typ: ptData, fragCount: 1}, nil)
	pkt[0] = 99
	if _, _, err := decodePacket(pkt); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReassemblyTimeoutPurges(t *testing.T) {
	// Drop ~half the fragments so some messages never complete; the
	// reassembly buffers must be purged rather than leak.
	r := newRigWithTimeout(t, memnet.Config{DropRate: 0.5, Seed: 11}, 30*time.Millisecond)
	a, b := r.stacks[0], r.stacks[1]
	addrA, addrB := a.AllocAddress(), b.AllocAddress()
	in := newInbox()
	a.Register(addrA, func(Message) {})
	b.Register(addrB, in.handler())

	payload := make([]byte, 4*MaxFragmentPayload)
	for i := 0; i < 40; i++ {
		_ = a.Send(addrA, addrB, payload)
	}
	deadline := time.After(2 * time.Second)
	for b.Stats().ReassemblyDrops == 0 {
		select {
		case <-deadline:
			t.Fatal("incomplete reassemblies never purged")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func newRigWithTimeout(t *testing.T, cfg memnet.Config, reasm time.Duration) *rig {
	t.Helper()
	r := &rig{net: memnet.New(cfg)}
	clock := sim.NewRealClock()
	for i := 0; i < 2; i++ {
		st, err := r.net.Attach("node")
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		r.stacks = append(r.stacks, NewStack(Config{
			Station:           st,
			Clock:             clock,
			LocateInterval:    5 * time.Millisecond,
			ReassemblyTimeout: reasm,
		}))
	}
	t.Cleanup(r.net.Close)
	return r
}

func TestDuplicateFragmentsIgnored(t *testing.T) {
	r := newRig(t, 2, memnet.Config{DuplicateRate: 1.0, Seed: 5})
	a, b := r.stacks[0], r.stacks[1]
	addrA, addrB := a.AllocAddress(), b.AllocAddress()
	in := newInbox()
	a.Register(addrA, func(Message) {})
	b.Register(addrB, in.handler())
	payload := make([]byte, 3*MaxFragmentPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(addrA, addrB, payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msgs := in.wait(t, 1)
	if !bytes.Equal(msgs[0].Payload, payload) {
		t.Fatal("payload corrupted by duplicate fragments")
	}
}

func TestSimModeDeterministic(t *testing.T) {
	run := func() time.Duration {
		engine := sim.NewEngine(17)
		clock := sim.NewEngineClock(engine)
		// Build two stacks over the simulated Ethernet.
		net := newSimNet(engine)
		a := NewStack(Config{Station: net.station(0), Clock: clock})
		b := NewStack(Config{Station: net.station(1), Clock: clock})
		addrA, addrB := a.AllocAddress(), b.AllocAddress()
		a.Register(addrA, func(Message) {})
		var deliveredAt time.Duration
		b.Register(addrB, func(Message) { deliveredAt = engine.Now() })
		engine.After(0, func() { _ = a.Send(addrA, addrB, []byte("sim")) })
		engine.Run()
		if deliveredAt == 0 {
			t.Fatal("not delivered in sim mode")
		}
		return deliveredAt
	}
	if run() != run() {
		t.Fatal("sim-mode delivery time not deterministic")
	}
}
