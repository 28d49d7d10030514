package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"

	"amoeba/kv"
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opTxn
	nKinds
)

var kindNames = [nKinds]string{"put", "get", "txn"}

// workload is one traffic mix. Every op draws its kind independently:
// txnFrac Txns, getFrac Gets, the rest Puts of putSize bytes. Txn writes
// and preloaded values are always 64 B.
type workload struct {
	name             string
	leases, durable  bool
	getFrac, txnFrac float64
	putSize          int
}

var workloads = []*workload{
	{name: "put", putSize: valueSmall},
	{name: "lease-read", leases: true, getFrac: 0.95, putSize: valueSmall},
	{name: "txn-durable", durable: true, txnFrac: 0.5, getFrac: 0.2, putSize: valueLarge},
}

func (w *workload) pick(rng *rand.Rand) opKind {
	r := rng.Float64()
	switch {
	case r < w.txnFrac:
		return opTxn
	case r < w.txnFrac+w.getFrac:
		return opGet
	}
	return opPut
}

// expect is what the output check accepts for one key: the version (and
// size) of the last acknowledged write, or alt, a later write whose call
// failed and so may or may not have landed.
type expect struct {
	v, alt       uint64
	size, altLen int
}

func (e expect) accepts(val []byte) bool {
	if len(val) < 8 {
		return false
	}
	v := binary.LittleEndian.Uint64(val)
	return v == e.v && len(val) == e.size || e.alt != 0 && v == e.alt && len(val) == e.altLen
}

// span is one root span: a client call from start to end, relative to the
// start of the measured phase.
type span struct {
	start, end    int64 // ns
	kind          opKind
	shard, shard2 uint8 // shard2: a Txn's second shard
	ok            bool
}

// loadClient is one closed-loop client: it owns every key whose index is
// congruent to its id, so the value each owned key must hold is known.
type loadClient struct {
	id   int
	cl   *kv.Client
	rng  *rand.Rand
	keys []string
	// shardOf[i] is keys[i]'s shard; notOn[s] lists the owned keys not
	// on shard s, from which a Txn draws its second key.
	shardOf []int
	notOn   [shards][]int
	want    []expect
	n       uint64 // writes issued, for versions

	small, small2, large []byte
	txnW                 [2]kv.TxnWrite

	samples *offHeap[uint64] // failBit | kind<<56 | latency ns
	spans   *offHeap[span]   // traced phase only
	// marks[w] is the number of samples completed before the end of
	// window w of the measured phase.
	marks []int

	ops        [nKinds]uint64 // successful calls
	failed     uint64
	mismatches uint64
	firstBad   string
}

func newLoadClient(c *cluster, id int, seed int64, traced bool) (*loadClient, error) {
	lc := &loadClient{
		id:     id,
		cl:     c.clients[id],
		rng:    rand.New(rand.NewSource(seed*nClients + int64(id))),
		small:  make([]byte, valueSmall),
		small2: make([]byte, valueSmall),
		large:  make([]byte, valueLarge),
	}
	for k := id; k < nKeys; k += nClients {
		key := keyName(k)
		s := c.stores[0].ShardFor(key)
		for o := 0; o < shards; o++ {
			if o != s {
				lc.notOn[o] = append(lc.notOn[o], len(lc.keys))
			}
		}
		lc.keys = append(lc.keys, key)
		lc.shardOf = append(lc.shardOf, s)
		lc.want = append(lc.want, expect{v: version(id, 0), size: valueSmall})
	}
	// Version 0 was preloaded; the filler after the version is fixed per
	// size, so each op only rewrites the first 8 bytes.
	for _, b := range [][]byte{lc.small, lc.small2, lc.large} {
		fillValue(b, seed, 0)
	}
	var err error
	if lc.samples, err = newOffHeap[uint64](1 << 24); err != nil {
		return nil, err
	}
	if traced {
		if lc.spans, err = newOffHeap[span](1 << 23); err != nil {
			lc.free()
			return nil, err
		}
	}
	return lc, nil
}

func (lc *loadClient) free() {
	lc.samples.free()
	if lc.spans != nil {
		lc.spans.free()
	}
}

// write records the outcome of a write of version v to owned key i.
func (lc *loadClient) write(i int, v uint64, size int, err error) {
	if err == nil {
		lc.want[i] = expect{v: v, size: size}
		return
	}
	lc.want[i].alt, lc.want[i].altLen = v, size
}

func (lc *loadClient) mismatch(format string, args ...any) {
	lc.mismatches++
	if lc.firstBad == "" {
		lc.firstBad = fmt.Sprintf(format, args...)
	}
}

// run drives the closed loop until the deadline and returns the first
// sample-buffer overflow, if any.
func (lc *loadClient) run(ctx context.Context, w *workload, start time.Time, dur time.Duration) error {
	deadline := start.Add(dur)
	for t0 := time.Now(); t0.Before(deadline); {
		kind := w.pick(lc.rng)
		i := lc.rng.Intn(len(lc.keys))
		key := lc.keys[i]
		var (
			err    error
			ok     = true
			shard2 = -1
		)
		switch kind {
		case opPut:
			lc.n++
			buf := lc.small
			if w.putSize == valueLarge {
				buf = lc.large
			}
			v := version(lc.id, lc.n)
			binary.LittleEndian.PutUint64(buf, v)
			err = lc.cl.Put(ctx, key, buf)
			lc.write(i, v, len(buf), err)
		case opGet:
			var (
				val   []byte
				found bool
			)
			val, found, err = lc.cl.Get(ctx, key)
			if err == nil && (!found || !lc.want[i].accepts(val)) {
				lc.mismatch("get %s: found=%v value %x, want version %x", key, found, head(val), lc.want[i].v)
			}
		case opTxn:
			others := lc.notOn[lc.shardOf[i]]
			j := others[lc.rng.Intn(len(others))]
			shard2 = lc.shardOf[j]
			lc.n++
			v := version(lc.id, lc.n)
			binary.LittleEndian.PutUint64(lc.small, v)
			binary.LittleEndian.PutUint64(lc.small2, v)
			lc.txnW = [2]kv.TxnWrite{{Key: key, Val: lc.small}, {Key: lc.keys[j], Val: lc.small2}}
			var res *kv.TxnResult
			res, err = lc.cl.Txn(ctx, kv.TxnOp{Writes: lc.txnW[:]})
			if err == nil && !res.Committed {
				err = fmt.Errorf("txn on %s,%s not committed", key, lc.keys[j])
			}
			lc.write(i, v, valueSmall, err)
			lc.write(j, v, valueSmall, err)
		}
		t1 := time.Now()
		smp := uint64(kind)<<56 | uint64(t1.Sub(t0))
		if err != nil {
			ok = false
			lc.failed++
			smp |= failBit
		} else {
			lc.ops[kind]++
		}
		for t1.Sub(start) >= time.Duration(len(lc.marks)+1)*window {
			lc.marks = append(lc.marks, len(lc.samples.buf))
		}
		if !lc.samples.add(smp) {
			return fmt.Errorf("client %d: more than %d ops in one run", lc.id, cap(lc.samples.buf))
		}
		if lc.spans != nil {
			sp := span{start: int64(t0.Sub(start)), end: int64(t1.Sub(start)), kind: kind,
				shard: uint8(lc.shardOf[i]), shard2: uint8(shard2), ok: ok}
			if !lc.spans.add(sp) {
				return fmt.Errorf("client %d: more than %d spans in one run", lc.id, cap(lc.spans.buf))
			}
		}
		t0 = t1
	}
	return nil
}

func head(b []byte) []byte {
	if len(b) > 8 {
		return b[:8]
	}
	return b
}

// offHeap is a fixed-capacity buffer in anonymous mapped memory: the
// samples and spans a run keeps do not count toward the Go heap the run
// measures, and pages are committed only as they fill.
type offHeap[T any] struct {
	mem []byte
	buf []T
}

func newOffHeap[T any](n int) (*offHeap[T], error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping sample buffer: %w", err)
	}
	return &offHeap[T]{mem: mem, buf: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0]}, nil
}

func (o *offHeap[T]) add(v T) bool {
	if len(o.buf) == cap(o.buf) {
		return false
	}
	o.buf = append(o.buf, v)
	return true
}

func (o *offHeap[T]) free() {
	o.buf = nil
	syscall.Munmap(o.mem)
}
