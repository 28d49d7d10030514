package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// phaseResult is one measured phase: what the clients did and what the
// process spent doing it.
type phaseResult struct {
	clients []*loadClient
	elapsed time.Duration
	// host describes the rest of the host's load during the phase:
	// context for a noisy run, not a metric.
	host string
	// heapPeaks[w] is the peak HeapInuse (bytes) during window w.
	heapPeaks []uint64
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	lagMax    uint32 // traced only: largest apply-seq spread of one shard
	// cpuAt[w] is the process CPU time (user+sys) at the start of window w.
	cpuAt  []time.Duration
	before *layerSnap
	after  *layerSnap
}

func (p *phaseResult) ops() (n uint64) {
	for _, lc := range p.clients {
		for _, o := range lc.ops {
			n += o
		}
	}
	return n
}

func (p *phaseResult) failed() (n uint64) {
	for _, lc := range p.clients {
		n += lc.failed
	}
	return n
}

func (p *phaseResult) free() {
	for _, lc := range p.clients {
		lc.free()
	}
}

// failBit marks the sample of a failed call.
const failBit = 1 << 63

// latencies returns the sorted latencies (ns) of kind's successful calls
// in samples [from[c], to[c]) of each client c; nil bounds mean all.
func (p *phaseResult) latencies(kind opKind, from, to []int) []uint64 {
	var out []uint64
	for c, lc := range p.clients {
		buf := lc.samples.buf
		if to != nil {
			buf = buf[from[c]:to[c]]
		}
		for _, s := range buf {
			if s&failBit == 0 && opKind(s>>56) == kind {
				out = append(out, s&(1<<56-1))
			}
		}
	}
	slices.Sort(out)
	return out
}

// window is the span over which the steadied metrics are taken; they
// report the median over a phase's windows.
const window = time.Second

// windows returns, per full window of the phase, each client's sample
// range [from, to).
func (p *phaseResult) windows() (from, to [][]int) {
	n := len(p.cpuAt) - 1
	for w := 0; w < n; w++ {
		f, t := make([]int, len(p.clients)), make([]int, len(p.clients))
		for c, lc := range p.clients {
			if w >= len(lc.marks) {
				return from, to
			}
			if w > 0 {
				f[c] = lc.marks[w-1]
			}
			t[c] = lc.marks[w]
		}
		from, to = append(from, f), append(to, t)
	}
	return from, to
}

// steadied is a phase's window medians: throughput, Put p50, the p99.9 of
// writes (Put and Txn calls), CPU per call and peak heap. A median over
// windows shrugs off a stall of the shared host that a whole-run figure
// would absorb.
type steadied struct {
	opsS, putP50US, writeP999US, cpuUSPerOp, heapMB float64
	perWindow                                       [5][]float64
}

func (p *phaseResult) steady() steadied {
	var s steadied
	from, to := p.windows()
	for w := range from {
		n := float64(p.okIn(from[w], to[w]))
		puts := p.latencies(opPut, from[w], to[w])
		writes := append(slices.Clone(puts), p.latencies(opTxn, from[w], to[w])...)
		slices.Sort(writes)
		s.perWindow[0] = append(s.perWindow[0], n/window.Seconds())
		s.perWindow[1] = append(s.perWindow[1], pctUS(puts, 0.50))
		s.perWindow[2] = append(s.perWindow[2], pctUS(writes, 0.999))
		s.perWindow[3] = append(s.perWindow[3], ratio(float64((p.cpuAt[w+1]-p.cpuAt[w]).Microseconds()), n))
		s.perWindow[4] = append(s.perWindow[4], float64(p.heapPeaks[w])/(1<<20))
	}
	s.opsS, s.putP50US, s.writeP999US = median(s.perWindow[0]), median(s.perWindow[1]), median(s.perWindow[2])
	s.cpuUSPerOp, s.heapMB = median(s.perWindow[3]), median(s.perWindow[4])
	return s
}

// okIn counts successful calls in one window.
func (p *phaseResult) okIn(from, to []int) (n int) {
	for c, lc := range p.clients {
		for _, s := range lc.samples.buf[from[c]:to[c]] {
			if s&failBit == 0 {
				n++
			}
		}
	}
	return n
}

// measure runs the clients' closed loops for dur on c. A traced phase also
// keeps spans, samples the replicas' apply lag, and snapshots every layer's
// counters before and after.
func measure(ctx context.Context, c *cluster, w *workload, seed int64, dur time.Duration, traced bool) (*phaseResult, error) {
	p := &phaseResult{}
	for i := 0; i < nClients; i++ {
		lc, err := newLoadClient(c, i, seed, traced)
		if err != nil {
			p.free()
			return nil, err
		}
		p.clients = append(p.clients, lc)
	}
	runtime.GC()
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if traced {
		bg.Add(1)
		go func() {
			defer bg.Done()
			p.lagMax = sampleApplyLag(c, stop)
		}()
		p.before = snapLayers(c)
	}
	runtime.ReadMemStats(&p.mem0)
	cpu0 := cpuTime()
	load0 := readHostLoad()
	start := time.Now()
	bg.Add(1)
	go func() {
		defer bg.Done()
		p.cpuAt = sampleCPU(start, dur, cpu0)
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		p.heapPeaks = sampleHeap(start, stop)
	}()
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for i, lc := range p.clients {
		i, lc := i, lc
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = lc.run(ctx, w, start, dur)
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.host = readHostLoad().since(load0, p.elapsed)
	runtime.ReadMemStats(&p.mem1)
	if traced {
		p.after = snapLayers(c)
	}
	close(stop)
	bg.Wait()
	for _, err := range errs {
		if err != nil {
			p.free()
			return nil, err
		}
	}
	return p, nil
}

// heapSamples add up to HeapInuse. runtime/metrics reads them without
// stopping the world, as runtime.ReadMemStats would.
var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

func sampleHeap(start time.Time, stop <-chan struct{}) (peaks []uint64) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(heapSamples)
		w := int(time.Since(start) / window)
		for len(peaks) <= w {
			peaks = append(peaks, 0)
		}
		peaks[w] = max(peaks[w], heapSamples[0].Value.Uint64()+heapSamples[1].Value.Uint64())
		select {
		case <-stop:
			return peaks
		case <-t.C:
		}
	}
}

// sampleCPU reads the process CPU time at each window boundary.
func sampleCPU(start time.Time, dur time.Duration, cpu0 time.Duration) []time.Duration {
	at := []time.Duration{cpu0}
	for w := window; w <= dur; w += window {
		time.Sleep(time.Until(start.Add(w)))
		at = append(at, cpuTime())
	}
	return at
}

// sampleApplyLag tracks the largest spread of Replica.Applied() across the
// nodes of one shard.
func sampleApplyLag(c *cluster, stop <-chan struct{}) uint32 {
	var worst uint32
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		for i := 0; i < shards; i++ {
			lo, hi := ^uint32(0), uint32(0)
			for _, s := range c.stores {
				if r := s.Replica(i); r != nil {
					a := r.Applied()
					lo, hi = min(lo, a), max(hi, a)
				}
			}
			if hi >= lo && hi-lo > worst {
				worst = hi - lo
			}
		}
		select {
		case <-stop:
			return worst
		case <-t.C:
		}
	}
}

// hostLoad reads what the rest of the host costs this run, as context for
// a noisy result: the hypervisor's steal ticks and total ticks from
// /proc/stat, and the CPU and I/O pressure stall totals (µs) from
// /proc/pressure. Missing files read as zero.
type hostLoad struct{ steal, ticks, cpuSome, ioSome uint64 }

func readHostLoad() hostLoad {
	var h hostLoad
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseUint(f, 10, 64)
			h.ticks += v
			if i == 7 {
				h.steal = v
			}
		}
	}
	h.cpuSome = pressureTotal("/proc/pressure/cpu")
	h.ioSome = pressureTotal("/proc/pressure/io")
	return h
}

// pressureTotal is the "some" line's total= field of a PSI file.
func pressureTotal(path string) uint64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	_, total, _ := strings.Cut(line, "total=")
	v, _ := strconv.ParseUint(strings.TrimSpace(total), 10, 64)
	return v
}

// since renders the load between h0 and h over a phase of length d.
func (h hostLoad) since(h0 hostLoad, d time.Duration) string {
	us := float64(d.Microseconds())
	return fmt.Sprintf("host steal=%.1f%% cpu_pressure=%.1f%% io_pressure=%.1f%%",
		100*ratio(float64(h.steal-h0.steal), float64(h.ticks-h0.ticks)),
		100*float64(h.cpuSome-h0.cpuSome)/us, 100*float64(h.ioSome-h0.ioSome)/us)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
