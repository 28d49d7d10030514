package amoeba_test

// Multi-shard key-value benchmarks. These live in the external test package:
// kv imports amoeba, so the in-package bench file cannot import kv without a
// cycle.
//
// BenchmarkKVShardScaling_Sim is the headline scaling result for the kv
// subsystem: aggregate ordering throughput on the paper's modelled hardware
// (one machine per group member) as the shard count grows. With one shard,
// every write funnels through a single sequencer machine (the paper's
// Figure 4 ceiling); with S shards the sequencers run on S machines and
// aggregate msg/s multiplies — Figure 6's parallel-groups effect applied to
// a storage workload. Like the other *_Sim benches, the reported sim-msg/s
// is virtual-time throughput; ns/op measures the simulator itself.
//
// The Native benches measure this library's real single-host performance
// (latency of the write, sequenced-read, local-read, and cross-shard
// snapshot-read paths). They cannot demonstrate shard scaling: in-process, all "machines"
// time-share the host's CPUs, so spreading sequencers buys no aggregate
// cycles — that is what the simulator's per-machine CPU model is for.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba"
	"amoeba/internal/experiments"
	"amoeba/internal/netsim"
	"amoeba/kv"
)

// BenchmarkKVShardScaling_Sim reports aggregate virtual-time throughput of
// 1, 2, 4, and 8 shard groups (3-way replicated) on the paper's hardware.
// The aggregate rises near-linearly until the shared 10 Mbit/s Ethernet
// saturates (≈4 shards on the paper's wire).
func BenchmarkKVShardScaling_Sim(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				agg, err := experiments.ParallelGroupsPoint(netsim.DefaultCostModel(), shards, 3)
				if err != nil {
					b.Fatalf("ParallelGroupsPoint: %v", err)
				}
				total += agg
			}
			b.ReportMetric(total/float64(b.N), "sim-msg/s")
		})
	}
}

// benchCluster bootstraps a kv store over nodes fresh kernels.
func benchCluster(b *testing.B, shards, nodes int) []*kv.Store {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	b.Cleanup(cancel)
	net := amoeba.NewMemoryNetwork()
	b.Cleanup(net.Close)
	kernels := make([]*amoeba.Kernel, nodes)
	for i := range kernels {
		k, err := net.NewKernel(fmt.Sprintf("bench-node-%d", i))
		if err != nil {
			b.Fatalf("kernel: %v", err)
		}
		kernels[i] = k
	}
	stores, err := kv.Bootstrap(ctx, kernels, fmt.Sprintf("bench-%d", shards), kv.Options{Shards: shards})
	if err != nil {
		b.Fatalf("Bootstrap: %v", err)
	}
	b.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	return stores
}

// BenchmarkKVNativePut measures real concurrent write throughput on the
// in-memory transport across shard counts (4 nodes, 8 writers). See the
// package comment for why this measures protocol overhead, not scaling.
func BenchmarkKVNativePut(b *testing.B) {
	const nodes = 4
	for _, shards := range []int{1, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			stores := benchCluster(b, shards, nodes)
			ctx := context.Background()
			const workers = 8
			value := make([]byte, 64)
			var next atomic.Int64
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				cl := stores[w%nodes].NewClient()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := next.Add(1)
						if n > int64(b.N) {
							return
						}
						key := fmt.Sprintf("key-%06d", n%1024)
						if err := cl.Put(ctx, key, value); err != nil {
							b.Errorf("Put: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
			}
		})
	}
}

// BenchmarkKVSequencedGet measures the linearizable read path (a read marker
// through the shard's total order).
func BenchmarkKVSequencedGet(b *testing.B) {
	stores := benchCluster(b, 4, 2)
	ctx := context.Background()
	cl := stores[0].NewClient()
	if err := cl.Put(ctx, "bench-key", []byte("v")); err != nil {
		b.Fatalf("Put: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(ctx, "bench-key"); err != nil {
			b.Fatalf("Get: %v", err)
		}
	}
}

// BenchmarkKVLocalGet measures the fast local-read path for comparison: no
// network traffic at all.
func BenchmarkKVLocalGet(b *testing.B) {
	stores := benchCluster(b, 4, 2)
	ctx := context.Background()
	cl := stores[0].NewClient()
	if err := cl.Put(ctx, "bench-key", []byte("v")); err != nil {
		b.Fatalf("Put: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cl.LocalGet("bench-key"); !ok {
			b.Fatal("LocalGet missed")
		}
	}
}

// BenchmarkKVMGet measures a snapshot read of 16 keys across 4 shards (a
// read-only transaction).
func BenchmarkKVMGet(b *testing.B) {
	stores := benchCluster(b, 4, 2)
	ctx := context.Background()
	cl := stores[0].NewClient()
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("mget-%d", i)
		if err := cl.Put(ctx, keys[i], []byte("v")); err != nil {
			b.Fatalf("Put: %v", err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.MGet(ctx, keys...); err != nil {
			b.Fatalf("MGet: %v", err)
		}
	}
}
