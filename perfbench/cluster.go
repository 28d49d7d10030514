package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"amoeba"
	"amoeba/kv"
	"amoeba/obs"
)

// The deployment every workload runs on: amoeba-kv's defaults, except
// resilience 0 (see NOTES.md for the two-mode behaviour at resilience 1).
const (
	nodes      = 3
	shards     = 4
	nClients   = 2 // closed-loop clients, bound to nodes 0 and 1
	nKeys      = 1024
	auditEvery = time.Second
	// retryInterval is core.Config's default RetryInterval: the stall a
	// sender pays for each history-full refusal.
	retryInterval = 50 * time.Millisecond
)

// cluster is one in-process kv deployment on a memory network with one
// shared obs hub, wired the way amoeba-kv -serve wires it.
type cluster struct {
	net     *amoeba.MemoryNetwork
	kernels []*amoeba.Kernel
	hub     *obs.Hub
	stores  []*kv.Store
	clients []*kv.Client
	dataDir string
	// setup is the time from network creation until the first measured
	// op may start: bootstrap, preload and, with leases, lease arming.
	setup time.Duration
}

// startCluster boots a cluster for w and preloads every key with its
// version-0 value.
func startCluster(ctx context.Context, w *workload, seed int64, tmpRoot string) (*cluster, error) {
	t0 := time.Now()
	c := &cluster{net: amoeba.NewMemoryNetwork()}
	c.hub = obs.NewHub(obs.Options{Node: "perfbench", TraceMod: 1024})
	for i := 0; i < nodes; i++ {
		k, err := c.net.NewKernel(fmt.Sprintf("bench-node-%d", i))
		if err != nil {
			c.close()
			return nil, err
		}
		k.RegisterObs(c.hub)
		c.kernels = append(c.kernels, k)
	}
	opts := kv.Options{
		Shards:     shards,
		AuditEvery: auditEvery,
		Leases:     w.leases,
		Group: amoeba.GroupOptions{
			Resilience:   0,
			AutoReset:    true,
			MinSurvivors: 1,
			Obs:          c.hub,
		},
	}
	if w.durable {
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			c.close()
			return nil, err
		}
		c.dataDir = dir
		opts.DataDir = dir
	}
	stores, err := kv.Bootstrap(ctx, c.kernels, "bench", opts)
	if err != nil {
		c.close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	c.stores = stores
	for i := 0; i < nClients; i++ {
		c.clients = append(c.clients, stores[i].NewClient())
	}
	if err := c.preload(ctx, seed); err != nil {
		c.close()
		return nil, err
	}
	if w.leases {
		if err := c.armLeases(ctx); err != nil {
			c.close()
			return nil, err
		}
	}
	c.setup = time.Since(t0)
	return c, nil
}

// preload writes every key's version-0 value through the client that owns
// the key.
func (c *cluster) preload(ctx context.Context, seed int64) error {
	for ci, cl := range c.clients {
		var pairs []kv.Pair
		for k := ci; k < nKeys; k += nClients {
			pairs = append(pairs, kv.Pair{Key: keyName(k), Val: makeValue(seed, version(ci, 0), valueSmall)})
		}
		if err := cl.BatchPut(ctx, pairs); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// armLeases waits until every replica of every shard holds a read lease, so
// the measured phase starts with lease reads available.
func (c *cluster) armLeases(ctx context.Context) error {
	for {
		armed := true
		for _, s := range c.stores {
			for i := 0; i < shards; i++ {
				if r := s.Replica(i); r == nil || !r.Lease().Held {
					armed = false
				}
			}
		}
		if armed {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("arming leases: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// close stops every client, store, kernel and the network, and removes the
// cluster's WAL directory.
func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, s := range c.stores {
		s.Close()
	}
	for _, k := range c.kernels {
		k.Close()
	}
	c.net.Close()
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}

func keyName(k int) string { return fmt.Sprintf("key-%04d", k) }

// Value sizes the workloads write.
const (
	valueSmall = 64
	valueLarge = 4096
)

// version names one write: the writing client and its op counter. It is
// the first 8 bytes of every value, so the output check knows which write
// a read returned.
func version(client int, n uint64) uint64 { return uint64(client+1)<<48 | n }

// fillValue writes version v's value of len(buf) bytes: the version, then
// a filler fixed by the seed and the size.
func fillValue(buf []byte, seed int64, v uint64) {
	binary.LittleEndian.PutUint64(buf, v)
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(seed) + byte(i*7) + byte(len(buf))
	}
}

func versionOf(val []byte) uint64 { return binary.LittleEndian.Uint64(val) }

func makeValue(seed int64, v uint64, size int) []byte {
	buf := make([]byte, size)
	fillValue(buf, seed, v)
	return buf
}
