package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/internal/flip"
	"amoeba/internal/netw"
	"amoeba/internal/netw/memnet"
	"amoeba/internal/sim"
	"amoeba/kv"
	"amoeba/shared"
	"amoeba/wal"
)

// Each probe times one layer's public call in isolation, with no cluster
// running: a warm-up, then as many calls as fit in probeBudget (at most
// probeMaxOps). It reports the mean and the median call: a mean can be
// dominated by rare stalls (a history-full refusal costs 50 ms) that the
// median leaves out. Allocations are process-wide, so they include the
// work the call triggers on receiving goroutines.
const (
	probeWarm   = 50
	probeBudget = 200 * time.Millisecond
	probeMaxOps = 4000
)

type probeResult struct{ ns, p50ns, allocs, bytes float64 }

func timeOps(op func() error) (probeResult, error) {
	for i := 0; i < probeWarm; i++ {
		if err := op(); err != nil {
			return probeResult{}, err
		}
	}
	lat := make([]time.Duration, 0, probeMaxOps)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	prev := start
	for len(lat) < probeMaxOps && prev.Sub(start) < probeBudget {
		if err := op(); err != nil {
			return probeResult{}, err
		}
		now := time.Now()
		lat = append(lat, now.Sub(prev))
		prev = now
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(lat))
	slices.Sort(lat)
	return probeResult{
		ns:     float64(prev.Sub(start).Nanoseconds()) / n,
		p50ns:  float64(lat[len(lat)/2].Nanoseconds()),
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}, nil
}

// addProbe reports r as name_us (the mean), name_p50_us, name_allocs and
// name_bytes; with unit "ns" the times are in ns.
func (m metricSet) addProbe(name string, r probeResult, unit string) {
	scale := 1.0
	if unit == "us" {
		scale = 1e3
	}
	m.add(name+"_"+unit, unit, r.ns/scale)
	m.add(name+"_p50_"+unit, unit, r.p50ns/scale)
	m.add(name+"_allocs", "allocs/op", r.allocs)
	m.add(name+"_bytes", "B/op", r.bytes)
}

// runProbes runs every isolated layer probe at the payload sizes the
// workloads use.
func runProbes(ctx context.Context, m metricSet, w *workload, seed int64, tmpRoot string) error {
	if err := probeCodec(m, w, seed); err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	if err := probeNullReplica(ctx, m); err != nil {
		return fmt.Errorf("replica probe: %w", err)
	}
	for _, size := range []int{valueSmall, valueLarge} {
		if err := probeGroupSend(ctx, m, size); err != nil {
			return fmt.Errorf("group send probe: %w", err)
		}
		if err := probeFlipMulticast(ctx, m, size); err != nil {
			return fmt.Errorf("flip probe: %w", err)
		}
	}
	if err := probeMemnet(ctx, m); err != nil {
		return fmt.Errorf("memnet probe: %w", err)
	}
	if err := probeWAL(m, tmpRoot); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := probeRPC(ctx, m); err != nil {
		return fmt.Errorf("rpc probe: %w", err)
	}
	return nil
}

func sizeTag(size int) string {
	if size == valueLarge {
		return "4k"
	}
	return "64b"
}

// probeCodec encodes and decodes the requests and responses of 64 ops
// drawn from the workload's own mix.
func probeCodec(m metricSet, w *workload, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var reqs []*kv.Request
	var resps []*kv.Response
	small := makeValue(seed, 1, valueSmall)
	for i := 0; i < 64; i++ {
		key := keyName(rng.Intn(nKeys))
		switch w.pick(rng) {
		case opPut:
			reqs = append(reqs, &kv.Request{Op: kv.ReqPut, ID: uint64(i + 1), Key: key, Val: makeValue(seed, 1, w.putSize)})
			resps = append(resps, &kv.Response{OK: true})
		case opGet:
			reqs = append(reqs, &kv.Request{Op: kv.ReqGet, ID: uint64(i + 1), Keys: []string{key}})
			resps = append(resps, &kv.Response{OK: true, Values: [][]byte{small}, Found: []bool{true}})
		case opTxn:
			reqs = append(reqs, &kv.Request{Op: kv.ReqTxn, ID: uint64(i + 1), Writes: []kv.TxnWrite{
				{Key: key, Val: small}, {Key: keyName(rng.Intn(nKeys)), Val: small}}})
			resps = append(resps, &kv.Response{OK: true})
		}
	}
	encReq := make([][]byte, len(reqs))
	encResp := make([][]byte, len(reqs))
	i := 0
	enc, err := timeOps(func() error {
		j := i % len(reqs)
		encReq[j] = kv.EncodeRequest(reqs[j])
		encResp[j] = kv.EncodeResponse(resps[j])
		i++
		return nil
	})
	if err != nil {
		return err
	}
	i = 0
	dec, err := timeOps(func() error {
		j := i % len(reqs)
		i++
		if _, err := kv.DecodeRequest(encReq[j]); err != nil {
			return err
		}
		_, err := kv.DecodeResponse(encResp[j])
		return err
	})
	if err != nil {
		return err
	}
	m.add("kv.codec.encode_ns", "ns", enc.ns)
	m.add("kv.codec.decode_ns", "ns", dec.ns)
	m.add("kv.codec.allocs_per_op", "allocs/op", enc.allocs+dec.allocs)
	m.add("kv.codec.bytes_per_op", "B/op", enc.bytes+dec.bytes)
	return nil
}

// memCluster is three kernels on a fresh memory network.
func memCluster() (*amoeba.MemoryNetwork, []*amoeba.Kernel, error) {
	net := amoeba.NewMemoryNetwork()
	var ks []*amoeba.Kernel
	for i := 0; i < nodes; i++ {
		k, err := net.NewKernel(fmt.Sprintf("probe-%d", i))
		if err != nil {
			net.Close()
			return nil, nil, err
		}
		ks = append(ks, k)
	}
	return net, ks, nil
}

// nullSM counts applies and keeps no state.
type nullSM struct{ n uint64 }

func (s *nullSM) Apply([]byte)              { s.n++ }
func (s *nullSM) Snapshot() ([]byte, error) { return []byte{}, nil }
func (s *nullSM) Restore([]byte) error      { return nil }

// probeNullReplica submits 64 B commands from a non-sequencer replica of a
// 3-member group and waits for each to apply there.
func probeNullReplica(ctx context.Context, m metricSet) error {
	net, ks, err := memCluster()
	if err != nil {
		return err
	}
	defer net.Close()
	var reps []*shared.Replica
	defer func() {
		for _, r := range reps {
			r.Close()
		}
	}()
	for i, k := range ks {
		var r *shared.Replica
		if i == 0 {
			r, err = shared.Create(ctx, k, "probe-null", &nullSM{}, amoeba.GroupOptions{})
		} else {
			r, err = shared.Join(ctx, k, "probe-null", &nullSM{}, amoeba.GroupOptions{})
		}
		if err != nil {
			return err
		}
		reps = append(reps, r)
	}
	payload := make([]byte, valueSmall)
	r := reps[1]
	var want uint64
	res, err := timeOps(func() error {
		want++
		if err := r.Submit(ctx, payload); err != nil {
			return err
		}
		return r.Wait(ctx, func(sm shared.StateMachine) bool { return sm.(*nullSM).n >= want })
	})
	if err != nil {
		return err
	}
	m.addProbe("shared.null_submit_wait", res, "us")
	return nil
}

// probeGroupSend sends from a non-sequencer member of a 3-member group
// while every member drains Receive.
func probeGroupSend(ctx context.Context, m metricSet, size int) error {
	net, ks, err := memCluster()
	if err != nil {
		return err
	}
	defer net.Close()
	rctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var groups []*amoeba.Group
	defer func() {
		cancel()
		for _, g := range groups {
			g.Close()
		}
		wg.Wait()
	}()
	name := "probe-send-" + sizeTag(size)
	for i, k := range ks {
		var g *amoeba.Group
		if i == 0 {
			g, err = k.CreateGroup(ctx, name, amoeba.GroupOptions{})
		} else {
			g, err = k.JoinGroup(ctx, name, amoeba.GroupOptions{})
		}
		if err != nil {
			return err
		}
		groups = append(groups, g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := g.Receive(rctx); err != nil {
					return
				}
			}
		}()
	}
	payload := make([]byte, size)
	res, err := timeOps(func() error { return groups[1].Send(ctx, payload) })
	if err != nil {
		return err
	}
	m.addProbe("amoeba.send_"+sizeTag(size), res, "us")
	return nil
}

// deliveries counts arrivals and signals when the count reaches want.
type deliveries struct {
	got, want atomic.Int64
	done      chan struct{} // buffered 1: at most one signal is pending
}

func newDeliveries() *deliveries { return &deliveries{done: make(chan struct{}, 1)} }

func (d *deliveries) deliver() {
	if d.got.Add(1) == d.want.Load() {
		select {
		case d.done <- struct{}{}:
		default:
		}
	}
}

// await arms the counter for n more deliveries, runs send, and waits for
// the last delivery. A lost delivery waits out the run's context.
func (d *deliveries) await(ctx context.Context, n int64, send func() error) error {
	d.want.Add(n)
	if err := send(); err != nil {
		return err
	}
	select {
	case <-d.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("delivery lost: %w", ctx.Err())
	}
}

// probeFlipMulticast multicasts from one of three FLIP stacks on a memory
// network to the group all three joined, until the last delivery.
func probeFlipMulticast(ctx context.Context, m metricSet, size int) error {
	mn := memnet.NewReliable()
	defer mn.Close()
	d := newDeliveries()
	grp := flip.AddressForName("probe-flip")
	var stacks []*flip.Stack
	defer func() {
		for _, st := range stacks {
			st.Close()
		}
	}()
	for i := 0; i < nodes; i++ {
		station, err := mn.Attach(fmt.Sprintf("probe-flip-%d", i))
		if err != nil {
			return err
		}
		st := flip.NewStack(flip.Config{Station: station, Clock: sim.NewRealClock()})
		st.JoinGroup(grp, func(flip.Message) { d.deliver() })
		stacks = append(stacks, st)
	}
	src := stacks[0].AllocAddress()
	stacks[0].Register(src, func(flip.Message) {})
	payload := make([]byte, size)
	res, err := timeOps(func() error {
		return d.await(ctx, nodes, func() error { return stacks[0].Multicast(src, grp, payload) })
	})
	if err != nil {
		return err
	}
	m.addProbe("flip.multicast_"+sizeTag(size), res, "us")
	return nil
}

// probeMemnet multicasts one 64 B frame to three subscribed stations and
// waits for the last delivery.
func probeMemnet(ctx context.Context, m metricSet) error {
	mn := memnet.NewReliable()
	defer mn.Close()
	d := newDeliveries()
	const ch netw.ChannelID = 7
	var sender netw.Station
	for i := 0; i <= nodes; i++ {
		st, err := mn.Attach(fmt.Sprintf("probe-memnet-%d", i))
		if err != nil {
			return err
		}
		if i == 0 {
			st.SetHandler(func(netw.Frame) {})
			sender = st
			continue
		}
		st.SetHandler(func(netw.Frame) { d.deliver() })
		st.Subscribe(ch)
	}
	frame := make([]byte, valueSmall)
	res, err := timeOps(func() error {
		return d.await(ctx, nodes, func() error { return sender.Multicast(ch, frame) })
	})
	if err != nil {
		return err
	}
	m.addProbe("memnet.transmit", res, "ns")
	return nil
}

// probeWAL appends single entries to a fresh log: 64 B, 4 KiB, and 64 B
// followed by an fsync.
func probeWAL(m metricSet, tmpRoot string) error {
	for _, c := range []struct {
		name string
		size int
		sync bool
	}{{"wal.append_64b", valueSmall, false}, {"wal.append_4k", valueLarge, false}, {"wal.append_sync", valueSmall, true}} {
		dir, err := os.MkdirTemp(tmpRoot, "probe-wal-")
		if err != nil {
			return err
		}
		res, err := probeWALOnce(dir, c.size, c.sync)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		m.addProbe(c.name, res, "us")
	}
	return nil
}

func probeWALOnce(dir string, size int, sync bool) (probeResult, error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return probeResult{}, err
	}
	defer l.Close()
	entries := []wal.Entry{{Payload: make([]byte, size)}}
	return timeOps(func() error {
		entries[0].Seq++
		if err := l.Append(entries); err != nil {
			return err
		}
		if sync {
			return l.Sync()
		}
		return nil
	})
}

// probeRPC calls a 64 B echo server on another kernel.
func probeRPC(ctx context.Context, m metricSet) error {
	net, ks, err := memCluster()
	if err != nil {
		return err
	}
	defer net.Close()
	addr := amoeba.AddrForName("probe-echo")
	srv, err := ks[1].NewRPCServer(addr, func(req []byte) ([]byte, amoeba.Addr) { return req, 0 })
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := ks[0].NewRPCClient()
	if err != nil {
		return err
	}
	defer cl.Close()
	payload := make([]byte, valueSmall)
	res, err := timeOps(func() error {
		_, err := cl.Call(ctx, addr, payload)
		return err
	})
	if err != nil {
		return err
	}
	m.addProbe("rpc.call", res, "us")
	return nil
}
