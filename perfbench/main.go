// Command perfbench is the repository's kv benchmark. It drives one of
// three workloads against an in-process 3-node kv store from two
// closed-loop clients, checks the store's outputs, and prints its metrics
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// workload runs twice, untraced and then with spans kept, the isolated
// layer probes follow, and the metrics are the per-layer ones. See
// NOTES.md for what each workload and metric is for.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// setupRuns is how many times a --trace 0 run sets the cluster up; it
// reports the median set-up time and measures on the last cluster.
const setupRuns = 15

// workDir holds what a run writes: WAL temp directories and span files.
const workDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: put, lease-read or txn-durable")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of one measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload put|lease-read|txn-durable --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	stamp(w, *seed, *seconds, *trace)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	dur := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = runEndToEnd(ctx, w, *seed, dur)
	} else {
		res, err = runTraced(ctx, w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEndToEnd sets the cluster up setupRuns times, measures on the last
// one with tracing off, and checks its outputs.
func runEndToEnd(ctx context.Context, w *workload, seed int64, dur time.Duration) (*result, error) {
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var setups []float64
	var c *cluster
	for i := 0; i < setupRuns; i++ {
		if c, err = startCluster(ctx, w, seed, tmp); err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
		if i < setupRuns-1 {
			c.close()
		}
	}
	defer c.close()
	p, err := measure(ctx, c, w, seed, dur, false)
	if err != nil {
		return nil, err
	}
	defer p.free()
	res := newResult(p)
	if err := checkOutputs(ctx, c, p, seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
		res.Correct = false
	}
	st := p.steady()
	m := res.Metrics
	m.add("ops_s", "1/s", st.opsS)
	m.add("setup_s", "s", median(setups))
	m.add("put_p50_us", "us", st.putP50US)
	m.add("write_p999_us", "us", st.writeP999US)
	m.add("cpu_us_per_op", "us", st.cpuUSPerOp)
	m.add("heap_mb", "MB", st.heapMB)
	fmt.Printf("calls=%d windows=%d elapsed=%.3fs setups_s=%.3f\n%s\n",
		p.ops()+p.failed(), len(st.perWindow[0]), p.elapsed.Seconds(), setups, p.host)
	fmt.Printf("per window: ops_s=%.0f\n  put_p50_us=%.1f\n  write_p999_us=%.0f\n  cpu_us_per_op=%.1f\n  heap_mb=%.1f\n",
		st.perWindow[0], st.perWindow[1], st.perWindow[2], st.perWindow[3], st.perWindow[4])
	return res, nil
}

// runTraced measures once with tracing off and once with it on, each on a
// fresh cluster with the same seed, then runs the isolated layer probes.
// Per-op latencies and runtime costs come from the untraced phase; layer
// counters and stage means from the traced one.
func runTraced(ctx context.Context, w *workload, seed int64, dur time.Duration) (*result, error) {
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var phases [2]*phaseResult
	correct := true
	for i, traced := range []bool{false, true} {
		c, err := startCluster(ctx, w, seed, tmp)
		if err != nil {
			return nil, err
		}
		p, err := measure(ctx, c, w, seed, dur, traced)
		if err != nil {
			c.close()
			return nil, err
		}
		defer p.free()
		if err := checkOutputs(ctx, c, p, seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
			correct = false
		}
		c.close()
		phases[i] = p
	}
	plain, traced := phases[0], phases[1]
	if err := writeSpans(w, seed, traced); err != nil {
		return nil, err
	}
	res := newResult(plain)
	res.Attempted += traced.ops() + traced.failed()
	res.Failed += traced.failed()
	res.Correct = correct
	m := res.Metrics
	layerMetrics(m, traced)
	ops := float64(plain.ops())
	m.add("runtime.allocs_per_op", "allocs/op", ratio(float64(plain.mem1.Mallocs-plain.mem0.Mallocs), ops))
	m.add("runtime.bytes_per_op", "B/op", ratio(float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc), ops))
	m.add("runtime.gc_per_kop", "1/kop", ratio(float64(plain.mem1.NumGC-plain.mem0.NumGC), ops/1e3))
	plainOps, tracedOps := plain.steady().opsS, traced.steady().opsS
	m.add("bench.trace_overhead_pct", "%", 100*(1-tracedOps/plainOps))
	put, get, txn := plain.latencies(opPut, nil, nil), plain.latencies(opGet, nil, nil), plain.latencies(opTxn, nil, nil)
	m.add("op.put_p99_us", "us", pctUS(put, 0.99))
	m.add("op.put_p999_us", "us", pctUS(put, 0.999))
	writes := append(slices.Clone(put), txn...)
	slices.Sort(writes)
	m.add("op.write_p999_us", "us", pctUS(writes, 0.999))
	m.add("op.get_p50_us", "us", pctUS(get, 0.50))
	m.add("op.get_p99_us", "us", pctUS(get, 0.99))
	m.add("op.txn_p50_us", "us", pctUS(txn, 0.50))
	m.add("op.txn_p99_us", "us", pctUS(txn, 0.99))
	m.add("op.failed_frac", "ratio", ratio(float64(plain.failed()), float64(plain.ops()+plain.failed())))
	fmt.Printf("samples put=%d get=%d txn=%d untraced_ops_s=%.1f traced_ops_s=%.1f\n",
		len(put), len(get), len(txn), plainOps, tracedOps)
	if err := runProbes(ctx, m, w, seed, tmp); err != nil {
		return nil, err
	}
	return res, nil
}

func newResult(p *phaseResult) *result {
	return &result{Correct: true, Attempted: p.ops() + p.failed(), Failed: p.failed(), Metrics: metricSet{}}
}

// pctUS is the exact q-quantile (nearest rank) of sorted ns samples, in µs.
func pctUS(sorted []uint64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// writeSpans writes the traced phase's root spans, one per client call, to
// .bench_build/spans/<workload>.tsv (overwritten by the next traced run).
func writeSpans(w *workload, seed int64, p *phaseResult) error {
	dir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, w.name+".tsv"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# workload=%s seed=%d\nclient\top\tshard\tshard2\tstart_ns\tend_ns\tok\n", w.name, seed)
	for _, lc := range p.clients {
		for _, s := range lc.spans.buf {
			shard2 := "-"
			if s.shard2 != 255 {
				shard2 = fmt.Sprint(s.shard2)
			}
			fmt.Fprintf(bw, "%d\t%s\t%d\t%s\t%d\t%d\t%v\n", lc.id, kindNames[s.kind], s.shard, shard2, s.start, s.end, s.ok)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stamp prints the run's provenance as a JSON line before the result.
func stamp(w *workload, seed int64, seconds, trace int) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	prov := map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
		"os":            runtime.GOOS + "/" + runtime.GOARCH + " " + strings.TrimSpace(string(kernel)),
		"workload":      w.name,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         trace,
	}
	out, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(out))
}

// gitCommit is the checkout's HEAD, or "none" outside a git work tree
// rooted here.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, _ := os.Getwd()
	lines := strings.Fields(string(out))
	if err != nil || len(lines) != 2 || lines[0] != wd {
		return "none"
	}
	return lines[1]
}

// sourceDigest hashes every Go source and go.mod file under the checkout
// root, so a result names the code it measured even without git.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
