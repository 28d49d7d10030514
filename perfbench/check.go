package main

import (
	"bytes"
	"context"
	"fmt"
)

// checkOutputs verifies the store after a measured phase:
//
//   - a Get of every key through its owning client returns the last value
//     that client saw acknowledged (a committed Txn acknowledges both of
//     its keys);
//   - after one sequenced audit per node, every node's local replica holds
//     that same value;
//   - the audits compared digests across replicas and found no divergence.
//
// On lease-read the Get is served under the read lease, which is as
// linearizable as the sequenced read marker it replaces; the replica check
// after the audits reads every copy regardless of path.
func checkOutputs(ctx context.Context, c *cluster, p *phaseResult, seed int64) error {
	for _, lc := range p.clients {
		if lc.mismatches > 0 {
			return fmt.Errorf("client %d: %d reads returned a value it never wrote last; first: %s",
				lc.id, lc.mismatches, lc.firstBad)
		}
		for i, key := range lc.keys {
			val, found, err := lc.cl.Get(ctx, key)
			if err != nil {
				return fmt.Errorf("check get %s: %w", key, err)
			}
			if err := lc.want[i].match(seed, key, val, found); err != nil {
				return err
			}
		}
	}
	audits0 := counter(c.hub.Registry(), "amoeba_health_audits_total")
	for i, s := range c.stores {
		if err := s.AuditNow(ctx); err != nil {
			return fmt.Errorf("audit from node %d: %w", i, err)
		}
	}
	if counter(c.hub.Registry(), "amoeba_health_audits_total") == audits0 {
		return fmt.Errorf("audits compared no digests")
	}
	if divs := c.hub.Health().Divergences(); len(divs) > 0 {
		return fmt.Errorf("%d replica divergences; first: %v", len(divs), divs[0])
	}
	for n, s := range c.stores {
		local := s.NewClient()
		for _, lc := range p.clients {
			for i, key := range lc.keys {
				val, found := local.LocalGet(key)
				if err := lc.want[i].match(seed, key, val, found); err != nil {
					local.Close()
					return fmt.Errorf("node %d replica: %w", n, err)
				}
			}
		}
		local.Close()
	}
	return nil
}

// match checks a read of key against the expected write, byte for byte.
func (e expect) match(seed int64, key string, val []byte, found bool) error {
	if found && e.accepts(val) && bytes.Equal(val, makeValue(seed, versionOf(val), len(val))) {
		return nil
	}
	return fmt.Errorf("key %s: found=%v len=%d head=%x, want version %x (%d B)", key, found, len(val), head(val), e.v, e.size)
}
