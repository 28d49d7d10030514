package main

import (
	"amoeba/obs"
)

// layerSnap is every layer's public counters at one instant: the hub
// registry (core, flip, kv client, wal and health counters; stage
// histograms) plus the Stats calls the registry does not carry.
type layerSnap struct {
	counters               map[string]uint64
	hists                  map[string]obs.HistSnapshot
	leased, leaseFallback  uint64
	walAppends, walEntries uint64
}

func snapLayers(c *cluster) *layerSnap {
	reg := c.hub.Registry()
	s := &layerSnap{counters: make(map[string]uint64), hists: make(map[string]obs.HistSnapshot)}
	for _, smp := range reg.Counters() {
		s.counters[smp.Name] = smp.Value
	}
	for _, h := range reg.Histograms() {
		s.hists[h.Name] = h
	}
	for _, st := range c.stores {
		leased, fallback, _, _ := st.LeaseStats()
		s.leased += leased
		s.leaseFallback += fallback
		for i := 0; i < shards; i++ {
			if r := st.Replica(i); r != nil {
				ds := r.DurabilityStats()
				s.walAppends += ds.Log.Appends
				s.walEntries += ds.Log.Entries
			}
		}
	}
	return s
}

func counter(reg *obs.Registry, name string) uint64 {
	for _, s := range reg.Counters() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// delta is the change of counter name over the phase.
func delta(a, b *layerSnap, name string) float64 {
	return float64(b.counters[name] - a.counters[name])
}

// meanUS is histogram name's mean over the phase, in µs.
func meanUS(a, b *layerSnap, name string) float64 {
	return meanOf(a, b, name) / 1e3
}

func meanOf(a, b *layerSnap, name string) float64 {
	n := b.hists[name].Count - a.hists[name].Count
	return ratio(float64(b.hists[name].Sum-a.hists[name].Sum), float64(n))
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// layerMetrics derives the per-layer metrics of a traced phase from its
// before and after snapshots. ops counts successful workload calls.
func layerMetrics(m metricSet, p *phaseResult) {
	a, b := p.before, p.after
	ops := float64(p.ops())
	kops := ops / 1e3
	secs := p.elapsed.Seconds()
	var txns float64
	for _, lc := range p.clients {
		txns += float64(lc.ops[opTxn])
	}

	m.add("kv.client_local_us", "us", meanUS(a, b, "amoeba_kv_client_local_ns"))
	m.add("kv.txn_prepare_us", "us", meanUS(a, b, "amoeba_kv_txn_prepare_ns"))
	m.add("kv.txn_resolve_us", "us", meanUS(a, b, "amoeba_kv_txn_resolve_ns"))
	m.add("kv.txn_conflict_retries_per_ktxn", "1/ktxn",
		ratio(delta(a, b, "amoeba_kv_client_txn_conflict_retries_total"), txns/1e3))
	leased := float64(b.leased - a.leased)
	m.add("kv.lease_hit_ratio", "ratio", ratio(leased, leased+float64(b.leaseFallback-a.leaseFallback)))

	// The replica samples one apply in eight into its histogram.
	applyN := float64(b.hists["amoeba_replica_apply_ns"].Count - a.hists["amoeba_replica_apply_ns"].Count)
	m.add("shared.apply_us", "us", meanUS(a, b, "amoeba_replica_apply_ns"))
	m.add("shared.applies_per_op", "1/op", ratio(8*applyN, ops))
	m.add("shared.apply_lag_max", "seqs", float64(p.lagMax))

	m.add("amoeba.deliver_wait_us", "us", meanUS(a, b, "amoeba_group_deliver_wait_ns"))

	retries := delta(a, b, "amoeba_core_request_retries_total")
	m.add("core.seq_append_us", "us", meanUS(a, b, "amoeba_seq_append_ns"))
	m.add("core.seq_multicast_us", "us", meanUS(a, b, "amoeba_seq_multicast_ns"))
	m.add("core.ack_complete_us", "us", meanUS(a, b, "amoeba_seq_ack_complete_ns"))
	m.add("core.batch_fill", "msgs", meanOf(a, b, "amoeba_seq_batch_fill"))
	m.add("core.ordered_per_op", "1/op", ratio(delta(a, b, "amoeba_core_ordered_total"), ops))
	m.add("core.dropped_full_per_kop", "1/kop", ratio(delta(a, b, "amoeba_core_dropped_full_total"), kops))
	m.add("core.retries_per_kop", "1/kop", ratio(retries, kops))
	m.add("core.stall_share", "ratio", retries*retryInterval.Seconds()/(nClients*secs))
	m.add("core.naks_per_kop", "1/kop", ratio(delta(a, b, "amoeba_core_naks_sent_total"), kops))
	m.add("core.retransmitted_per_kop", "1/kop", ratio(delta(a, b, "amoeba_core_retransmitted_total"), kops))
	m.add("core.lease_renewals_per_s", "1/s", delta(a, b, "amoeba_core_lease_renewals_total")/secs)

	m.add("flip.packets_out_per_op", "1/op", ratio(delta(a, b, "amoeba_flip_packets_out_total"), ops))
	m.add("flip.packets_in_per_op", "1/op", ratio(delta(a, b, "amoeba_flip_packets_in_total"), ops))
	m.add("flip.reassembly_drops", "count", delta(a, b, "amoeba_flip_reassembly_drops_total"))
	m.add("flip.garbled", "count", delta(a, b, "amoeba_flip_garbled_total"))

	m.add("wal.append_us", "us", meanUS(a, b, "amoeba_wal_append_ns"))
	m.add("wal.entries_per_append", "1/append", ratio(float64(b.walEntries-a.walEntries), float64(b.walAppends-a.walAppends)))
}
