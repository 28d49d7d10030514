// Package flip implements the Fast Local Internet Protocol, the connectionless
// datagram substrate beneath Amoeba's group communication and RPC layers.
//
// FLIP's defining property — the one the paper calls out against IP — is that
// addresses identify processes and groups of processes, not hosts. A stack
// learns where an address lives by broadcasting a locate request and caching
// the answer, so processes can move and groups can span machines without the
// upper layers knowing. Multicast is treated as an optimisation over n
// point-to-point messages: group addresses map onto link-layer multicast
// channels when the network has them.
//
// The stack fragments messages to the link MTU, reassembles with a per-sender
// message id, and discards garbled packets by CRC32 checksum — the "lost,
// garbled, and duplicate messages" the group protocol above recovers from.
package flip

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"amoeba/internal/cost"
	"amoeba/internal/netw"
	"amoeba/internal/sim"
)

// Address identifies a process endpoint or a group of processes.
type Address uint64

// String renders the address for diagnostics.
func (a Address) String() string { return fmt.Sprintf("flip:%016x", uint64(a)) }

// AddressForName derives a stable group address from a human-readable name,
// the way Amoeba derives ports from service names.
func AddressForName(name string) Address {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	a := Address(h.Sum64())
	if a == 0 {
		a = 1
	}
	return a
}

// Message is a fully reassembled FLIP datagram delivered to a handler.
type Message struct {
	// Src is the sending process address.
	Src Address
	// Dst is the local address (process or group) the message arrived on.
	Dst Address
	// Payload is the message body; the receiver owns it.
	Payload []byte
	// SrcNode is the link-layer station the message arrived from, usable
	// as a routing hint.
	SrcNode netw.NodeID
}

// Handler receives reassembled messages. Handlers run on the stack's
// delivery context (the simulation goroutine or the transport's delivery
// goroutine) and may call back into the stack.
type Handler func(Message)

// LocateChannel is the well-known multicast channel every stack subscribes
// to for address location broadcasts.
const LocateChannel netw.ChannelID = 1

// channelFor maps a group address onto a link multicast channel. Channel
// space is 32-bit; fold the address onto it, avoiding the reserved locate
// channel.
func channelFor(a Address) netw.ChannelID {
	ch := netw.ChannelID(uint32(a) ^ uint32(a>>32))
	if ch == LocateChannel {
		ch = ^LocateChannel
	}
	return ch
}

// Config assembles a Stack.
type Config struct {
	// Station is the link attachment. Required.
	Station netw.Station
	// Clock drives locate retries and reassembly purging. Required.
	Clock sim.Clock
	// Meter accounts per-packet processing; nil means no accounting.
	Meter cost.Meter
	// LocateInterval is the retry spacing for unanswered locates
	// (default 20 ms).
	LocateInterval time.Duration
	// LocateAttempts bounds locate retries before queued messages are
	// dropped (default 5).
	LocateAttempts int
	// ReassemblyTimeout purges incomplete fragment sets (default 500 ms).
	ReassemblyTimeout time.Duration
}

// Stats counts stack-level events, all monotonically increasing.
type Stats struct {
	PacketsOut        uint64 // fragments transmitted
	PacketsIn         uint64 // fragments received and accepted
	Garbled           uint64 // packets dropped by checksum or decode error
	MessagesDelivered uint64
	LocatesSent       uint64
	LocateFailures    uint64 // queued messages dropped: address never found
	ReassemblyDrops   uint64 // fragment sets purged by timeout
	NoHandler         uint64 // packets for addresses not registered here
}

// Stack is one machine's FLIP endpoint.
type Stack struct {
	station netw.Station
	clock   sim.Clock
	meter   cost.Meter
	cfg     Config

	mu        sync.Mutex
	closed    bool
	nextAddr  uint64
	nextMsgID uint32
	local     map[Address]Handler // process endpoints registered here
	groups    map[Address]Handler // group addresses joined here
	routes    map[Address]netw.NodeID
	pending   map[Address]*locateState
	reasm     map[reasmKey]*reasmBuf
	stats     Stats
}

type locateState struct {
	queued   [][]byte // encoded, unfragmented payloads awaiting a route
	srcs     []Address
	attempts int
	timer    sim.Timer
	flushing bool // a Here arrived and handleHere is sending the queue
}

type reasmKey struct {
	src   Address
	msgID uint32
}

type reasmBuf struct {
	frags    [][]byte
	have     int
	total    int
	dst      Address
	srcNode  netw.NodeID
	deadline time.Duration
}

// NewStack attaches a FLIP stack to a station.
func NewStack(cfg Config) *Stack {
	if cfg.Meter == nil {
		cfg.Meter = cost.NopMeter{}
	}
	if cfg.LocateInterval <= 0 {
		cfg.LocateInterval = 20 * time.Millisecond
	}
	if cfg.LocateAttempts <= 0 {
		cfg.LocateAttempts = 5
	}
	if cfg.ReassemblyTimeout <= 0 {
		cfg.ReassemblyTimeout = 500 * time.Millisecond
	}
	st := &Stack{
		station: cfg.Station,
		clock:   cfg.Clock,
		meter:   cfg.Meter,
		cfg:     cfg,
		local:   make(map[Address]Handler),
		groups:  make(map[Address]Handler),
		routes:  make(map[Address]netw.NodeID),
		pending: make(map[Address]*locateState),
		reasm:   make(map[reasmKey]*reasmBuf),
	}
	st.station.Subscribe(LocateChannel)
	st.station.SetHandler(st.onFrame)
	return st
}

// Node returns the underlying link station id.
func (st *Stack) Node() netw.NodeID { return st.station.ID() }

// Stats returns a snapshot of the stack counters.
func (st *Stack) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// AllocAddress returns a fresh process address unique to this stack:
// (station+1) in the high word, a counter in the low word. Deterministic, so
// simulations replay exactly.
func (st *Stack) AllocAddress() Address {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextAddr++
	return Address(uint64(st.station.ID()+1)<<32 | st.nextAddr)
}

// Register installs h as the receiver for process address a on this stack.
func (st *Stack) Register(a Address, h Handler) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.local[a] = h
}

// Unregister removes a process address.
func (st *Stack) Unregister(a Address) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.local, a)
}

// Forget drops the cached route for an address, forcing the next send to
// re-locate it. Callers use it when a destination has gone silent: a
// well-known address registered by several kernels (an anycast service) may
// have failed over to a survivor, and the cached route still points at the
// corpse — FLIP's process addressing makes the address itself stay valid.
func (st *Stack) Forget(a Address) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.routes, a)
}

// JoinGroup subscribes this stack to group address a, delivering its
// multicasts to h.
func (st *Stack) JoinGroup(a Address, h Handler) {
	st.mu.Lock()
	st.groups[a] = h
	st.mu.Unlock()
	st.station.Subscribe(channelFor(a))
}

// LeaveGroup unsubscribes from group address a.
func (st *Stack) LeaveGroup(a Address) {
	st.mu.Lock()
	delete(st.groups, a)
	st.mu.Unlock()
	st.station.Unsubscribe(channelFor(a))
}

// Close shuts the stack down. Pending locates are abandoned.
func (st *Stack) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	for _, p := range st.pending {
		if p.timer != nil {
			p.timer.Stop()
		}
	}
	st.pending = make(map[Address]*locateState)
}

// Send transmits payload from src to the process address dst. Delivery is
// unreliable datagram service; an error reports only local problems.
func (st *Stack) Send(src, dst Address, payload []byte) error {
	if src == 0 || dst == 0 {
		return errZeroAddress
	}
	if len(payload) > MaxMessageSize {
		return fmt.Errorf("%w: %d bytes", errTooLarge, len(payload))
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return errStackClosed
	}
	if _, ok := st.local[src]; !ok {
		st.mu.Unlock()
		return fmt.Errorf("%w: %v", errUnregistered, src)
	}
	// Local destination: loop back without touching the network.
	if _, ok := st.local[dst]; ok {
		msgID := st.nextMsgID
		st.nextMsgID++
		st.mu.Unlock()
		st.meter.Charge(cost.FLIPOut, 0)
		st.loopback(src, dst, payload, msgID)
		return nil
	}
	// A datagram to an address still being located queues behind the ones
	// that started the locate, even if a route was learned meanwhile, so it
	// cannot overtake them.
	node, ok := st.routes[dst]
	if !ok || st.pending[dst] != nil {
		st.queueForLocate(src, dst, payload)
		st.mu.Unlock()
		return nil
	}
	msgID := st.nextMsgID
	st.nextMsgID++
	st.mu.Unlock()
	st.sendFragments(src, dst, payload, msgID, func(pkt []byte) error {
		return st.station.Send(node, pkt)
	})
	return nil
}

// Multicast transmits payload from src to every member of group dst,
// including a member on this stack (delivered by loopback, as the Lance
// never interrupts its own machine).
func (st *Stack) Multicast(src, dst Address, payload []byte) error {
	if src == 0 || dst == 0 {
		return errZeroAddress
	}
	if len(payload) > MaxMessageSize {
		return fmt.Errorf("%w: %d bytes", errTooLarge, len(payload))
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return errStackClosed
	}
	if _, ok := st.local[src]; !ok {
		st.mu.Unlock()
		return fmt.Errorf("%w: %v", errUnregistered, src)
	}
	msgID := st.nextMsgID
	st.nextMsgID++
	_, joined := st.groups[dst]
	st.mu.Unlock()

	ch := channelFor(dst)
	st.sendFragments(src, dst, payload, msgID, func(pkt []byte) error {
		return st.station.Multicast(ch, pkt)
	})
	if joined {
		st.loopbackGroup(src, dst, payload)
	}
	return nil
}

// sendFragments splits payload and pushes each fragment through send.
func (st *Stack) sendFragments(src, dst Address, payload []byte, msgID uint32, send func([]byte) error) {
	count := (len(payload) + MaxFragmentPayload - 1) / MaxFragmentPayload
	if count == 0 {
		count = 1
	}
	for i := 0; i < count; i++ {
		lo := i * MaxFragmentPayload
		hi := lo + MaxFragmentPayload
		if hi > len(payload) {
			hi = len(payload)
		}
		h := header{
			typ:       ptData,
			src:       src,
			dst:       dst,
			msgID:     msgID,
			fragIndex: uint16(i),
			fragCount: uint16(count),
			totalLen:  uint32(len(payload)),
		}
		st.meter.Charge(cost.FLIPOut, 0)
		pkt := encodePacket(h, payload[lo:hi])
		if err := send(pkt); err != nil {
			return // link closed or frame invalid: datagram semantics
		}
		st.mu.Lock()
		st.stats.PacketsOut++
		st.mu.Unlock()
	}
}

// loopback delivers a unicast message to a local address. Local handoff
// bypasses FLIP input processing (no packet to decode), so no FLIPIn charge.
func (st *Stack) loopback(src, dst Address, payload []byte, _ uint32) {
	st.mu.Lock()
	h := st.local[dst]
	if h == nil {
		st.stats.NoHandler++
		st.mu.Unlock()
		return
	}
	st.stats.MessagesDelivered++
	st.mu.Unlock()
	p := make([]byte, len(payload))
	copy(p, payload)
	h(Message{Src: src, Dst: dst, Payload: p, SrcNode: st.station.ID()})
}

// loopbackGroup delivers a multicast to the local group member; like
// loopback, it is a kernel-internal handoff with no FLIP input cost.
func (st *Stack) loopbackGroup(src, dst Address, payload []byte) {
	st.mu.Lock()
	h := st.groups[dst]
	if h == nil {
		st.mu.Unlock()
		return
	}
	st.stats.MessagesDelivered++
	st.mu.Unlock()
	p := make([]byte, len(payload))
	copy(p, payload)
	h(Message{Src: src, Dst: dst, Payload: p, SrcNode: st.station.ID()})
}

// queueForLocate buffers a payload until dst is located. Caller holds st.mu.
func (st *Stack) queueForLocate(src, dst Address, payload []byte) {
	p := make([]byte, len(payload))
	copy(p, payload)
	ls := st.pending[dst]
	if ls == nil {
		ls = &locateState{}
		st.pending[dst] = ls
		st.sendLocateLocked(dst, ls)
	}
	ls.queued = append(ls.queued, p)
	ls.srcs = append(ls.srcs, src)
}

// sendLocateLocked broadcasts a locate for dst and arms the retry timer.
// Caller holds st.mu.
func (st *Stack) sendLocateLocked(dst Address, ls *locateState) {
	ls.attempts++
	st.stats.LocatesSent++
	pkt := encodePacket(header{typ: ptLocate, dst: dst, fragCount: 1}, nil)
	// Transmit outside the lock is preferable, but locate is rare and the
	// station send path does not call back into the stack.
	_ = st.station.Multicast(LocateChannel, pkt)
	ls.timer = st.clock.AfterFunc(st.cfg.LocateInterval, func() { st.locateRetry(dst) })
}

func (st *Stack) locateRetry(dst Address) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ls := st.pending[dst]
	if ls == nil || ls.flushing || st.closed {
		return
	}
	if ls.attempts >= st.cfg.LocateAttempts {
		st.stats.LocateFailures += uint64(len(ls.queued))
		delete(st.pending, dst)
		return
	}
	st.sendLocateLocked(dst, ls)
}

// onFrame is the link-layer upcall: one interrupt's worth of packet.
func (st *Stack) onFrame(f netw.Frame) {
	st.meter.Charge(cost.FLIPIn, 0)
	h, payload, err := decodePacket(f.Payload)
	if err != nil {
		st.mu.Lock()
		st.stats.Garbled++
		st.mu.Unlock()
		return
	}
	switch h.typ {
	case ptLocate:
		st.handleLocate(h, f.Src)
	case ptHere:
		st.handleHere(h, f.Src)
	case ptData:
		st.handleData(h, payload, f.Src)
	default:
		st.mu.Lock()
		st.stats.Garbled++
		st.mu.Unlock()
	}
}

func (st *Stack) handleLocate(h header, from netw.NodeID) {
	st.mu.Lock()
	_, here := st.local[h.dst]
	st.mu.Unlock()
	if !here {
		return
	}
	reply := encodePacket(header{typ: ptHere, src: h.dst, fragCount: 1}, nil)
	_ = st.station.Send(from, reply)
}

// handleHere flushes the datagrams queued behind a locate and only then
// publishes the route. Until it does, Send keeps queueing behind the pending
// locate, so a Send racing the flush cannot overtake the queue.
func (st *Stack) handleHere(h header, from netw.NodeID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if ls := st.pending[h.src]; ls != nil {
		if ls.flushing {
			return // a duplicate Here: the first one is draining the queue
		}
		ls.flushing = true
		if ls.timer != nil {
			ls.timer.Stop()
		}
		for len(ls.queued) > 0 {
			queued, srcs := ls.queued, ls.srcs
			ls.queued, ls.srcs = nil, nil
			msgID := st.nextMsgID
			st.nextMsgID += uint32(len(queued))
			st.mu.Unlock()
			for i, payload := range queued {
				st.sendFragments(srcs[i], h.src, payload, msgID+uint32(i), func(pkt []byte) error {
					return st.station.Send(from, pkt)
				})
			}
			st.mu.Lock()
		}
		if st.pending[h.src] == ls {
			delete(st.pending, h.src)
		}
	}
	st.routes[h.src] = from
}

func (st *Stack) handleData(h header, payload []byte, from netw.NodeID) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.stats.PacketsIn++
	// Learn the route back to the sender for free.
	if h.src != 0 {
		st.routes[h.src] = from
	}
	var deliver Handler
	if hdl, ok := st.local[h.dst]; ok {
		deliver = hdl
	} else if hdl, ok := st.groups[h.dst]; ok {
		deliver = hdl
	}
	if deliver == nil {
		st.stats.NoHandler++
		st.mu.Unlock()
		return
	}

	if h.fragCount == 1 {
		st.stats.MessagesDelivered++
		st.mu.Unlock()
		p := make([]byte, len(payload))
		copy(p, payload)
		deliver(Message{Src: h.src, Dst: h.dst, Payload: p, SrcNode: from})
		return
	}

	// Multi-fragment: stash and deliver on completion.
	key := reasmKey{src: h.src, msgID: h.msgID}
	buf := st.reasm[key]
	if buf == nil {
		buf = &reasmBuf{
			frags:   make([][]byte, h.fragCount),
			total:   int(h.fragCount),
			dst:     h.dst,
			srcNode: from,
		}
		st.reasm[key] = buf
		st.clock.AfterFunc(st.cfg.ReassemblyTimeout, func() { st.purgeReasm(key) })
	}
	if int(h.fragCount) != buf.total || int(h.fragIndex) >= buf.total {
		st.stats.Garbled++
		st.mu.Unlock()
		return
	}
	if buf.frags[h.fragIndex] == nil {
		p := make([]byte, len(payload))
		copy(p, payload)
		buf.frags[h.fragIndex] = p
		buf.have++
	}
	if buf.have < buf.total {
		st.mu.Unlock()
		return
	}
	delete(st.reasm, key)
	st.stats.MessagesDelivered++
	st.mu.Unlock()

	full := make([]byte, 0, h.totalLen)
	for _, frag := range buf.frags {
		full = append(full, frag...)
	}
	deliver(Message{Src: h.src, Dst: h.dst, Payload: full, SrcNode: from})
}

func (st *Stack) purgeReasm(key reasmKey) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.reasm[key]; ok {
		delete(st.reasm, key)
		st.stats.ReassemblyDrops++
	}
}
