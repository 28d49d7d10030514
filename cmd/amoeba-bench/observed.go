package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"amoeba/internal/experiments"
	"amoeba/obs"
)

// The observed and audit experiments price two always-on features on the
// same sharded workload (runLoad), each mode run in mirrored ABBA order:
//
//	observed  the obs hub detached (every instrument the nil no-op sink) vs
//	          attached (histograms, counters, tracer, flight recorder live),
//	          plus the per-stage latency breakdown the attached runs produce
//	audit     the periodic sequenced state audit off vs on, with the hub
//	          attached in both modes so the delta is the audit alone: the
//	          extra sequenced commands, the per-replica digest scans, and
//	          the cross-replica comparisons

// observedSchedule is the observed experiment's run order: D = hub
// detached, E = hub attached.
const observedSchedule = "DEEDEDDEEDDEDEED"

// auditSchedule doubles the observed layout with its mirror image. The
// audit's true cost is small — a digest scan is linear in a shard's state,
// and one extra sequenced command per period is noise against thousands of
// ordered ops — so the measurement needs better drift cancellation: 16 runs
// per mode, and each mode occupies the same average position in time at two
// block scales.
const auditSchedule = observedSchedule + "EDDEDEEDDEEDEDDE"

// auditPeriod is the audit period the enabled runs use — the default a
// production deployment would start from (10 digests/s per shard).
const auditPeriod = 100 * time.Millisecond

// trialDur is the length of one ABBA trial.
const trialDur = time.Second

type observedResult struct {
	// Trials is the number of runs per mode in the ABBA schedule.
	Trials int `json:"trials"`
	// DisabledOpsPerSec / EnabledOpsPerSec are the aggregate ordered-op
	// throughputs (total ops over total measured time) without and with
	// the hub attached.
	DisabledOpsPerSec float64 `json:"disabled_ops_per_sec"`
	EnabledOpsPerSec  float64 `json:"enabled_ops_per_sec"`
	// OverheadPercent is (1 − enabled/disabled)·100 — negative means the
	// enabled runs were faster (noise floor).
	OverheadPercent float64 `json:"overhead_percent"`
	// Stages is every pipeline stage the enabled runs observed — sequencer
	// append/multicast, delivery wait, replica apply, client paths — with
	// p50/p90/p99/max in power-of-two-ns bucket bounds.
	Stages []obs.StageQuantiles `json:"stages"`
}

// observed runs the hub detached-vs-attached comparison. One hub serves
// every enabled run, so the stage summary aggregates all of them.
func observed(ctx context.Context) (*experiments.Table, any, error) {
	hub := obs.NewHub(obs.Options{Node: "bench", TraceMod: 1024})
	dis, en, err := abba(observedSchedule, func(enabled bool) (*load, error) {
		if enabled {
			return runLoad(ctx, hub, 0, trialDur)
		}
		return runLoad(ctx, nil, 0, trialDur)
	})
	if err != nil {
		return nil, nil, err
	}
	res := &observedResult{
		Trials:            len(observedSchedule) / 2,
		DisabledOpsPerSec: dis,
		EnabledOpsPerSec:  en,
		OverheadPercent:   (1 - en/dis) * 100,
		Stages:            hub.Registry().StageSummary(),
	}

	t := &experiments.Table{
		ID:    "Observed",
		Title: "pipeline instrumentation: per-stage latency and enabled-vs-disabled cost",
		PaperNote: fmt.Sprintf("overhead %.2f%% (disabled %.0f ops/s, enabled %.0f ops/s, %d runs per mode, mirrored schedule)",
			res.OverheadPercent, res.DisabledOpsPerSec, res.EnabledOpsPerSec, res.Trials),
		Columns: []string{"stage", "count", "p50", "p90", "p99", "max"},
	}
	for _, s := range res.Stages {
		q := []uint64{s.P50, s.P90, s.P99, s.Max}
		row := []string{s.Stage, fmt.Sprintf("%d", s.Count)}
		for _, v := range q {
			if strings.HasSuffix(s.Stage, "_fill") {
				// Unitless histogram (batch occupancy), not a duration.
				row = append(row, fmt.Sprintf("%d", v))
			} else {
				row = append(row, time.Duration(v).Round(time.Microsecond).String())
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, res, nil
}

type auditResult struct {
	// Trials is the number of runs per mode in the ABBA schedule.
	Trials int `json:"trials"`
	// AuditEveryMS is the audit period the enabled runs used.
	AuditEveryMS int64 `json:"audit_every_ms"`
	// DisabledOpsPerSec / EnabledOpsPerSec are the aggregate ordered-op
	// throughputs without and with the audit driver running.
	DisabledOpsPerSec float64 `json:"disabled_ops_per_sec"`
	EnabledOpsPerSec  float64 `json:"enabled_ops_per_sec"`
	// OverheadPercent is (1 − enabled/disabled)·100 — negative means the
	// audited runs were faster (noise floor).
	OverheadPercent float64 `json:"overhead_percent"`
	// Audits is the number of cross-replica digest comparisons the enabled
	// runs completed; zero would mean the "enabled" side measured nothing.
	Audits uint64 `json:"audits"`
	// Divergences must be zero: an honest workload digesting differently
	// on different replicas is a bug, not overhead.
	Divergences int `json:"divergences"`
}

// audit runs the audit off-vs-on comparison. One hub serves both modes: the
// audit toggles, the instrumentation does not.
func audit(ctx context.Context) (*experiments.Table, any, error) {
	hub := obs.NewHub(obs.Options{Node: "bench", TraceMod: 1024})
	dis, en, err := abba(auditSchedule, func(enabled bool) (*load, error) {
		if enabled {
			return runLoad(ctx, hub, auditPeriod, trialDur)
		}
		return runLoad(ctx, hub, 0, trialDur)
	})
	if err != nil {
		return nil, nil, err
	}
	divs := hub.Health().Divergences()
	res := &auditResult{
		Trials:            len(auditSchedule) / 2,
		AuditEveryMS:      auditPeriod.Milliseconds(),
		DisabledOpsPerSec: dis,
		EnabledOpsPerSec:  en,
		OverheadPercent:   (1 - en/dis) * 100,
		Audits:            counter(hub, "amoeba_health_audits_total"),
		Divergences:       len(divs),
	}
	if res.Audits == 0 {
		return nil, nil, fmt.Errorf("audit bench ran no digest comparisons — the enabled side measured nothing")
	}
	if len(divs) != 0 {
		return nil, nil, fmt.Errorf("audit bench found %d divergences on an honest workload: %v", len(divs), divs[0])
	}

	t := &experiments.Table{
		ID:    "Audit",
		Title: "self-audit: sequenced state-digest audits on vs off (4 nodes, 4 shards, live in-memory fabric)",
		PaperNote: fmt.Sprintf("every replica digests its state at the same sequence number every %dms; a divergent replica is localized to (shard, seq, key-range)",
			res.AuditEveryMS),
		Columns: []string{"measure", "result", "note"},
	}
	t.Rows = append(t.Rows,
		[]string{"ops/s, audit off", fmt.Sprintf("%.0f", res.DisabledOpsPerSec), fmt.Sprintf("%d runs, mirrored schedule", res.Trials)},
		[]string{"ops/s, audit on", fmt.Sprintf("%.0f", res.EnabledOpsPerSec), fmt.Sprintf("period %dms", res.AuditEveryMS)},
		[]string{"overhead", fmt.Sprintf("%.2f%%", res.OverheadPercent), "negative = noise floor"},
		[]string{"digest comparisons", fmt.Sprintf("%d", res.Audits), fmt.Sprintf("%d divergences (must be 0)", len(divs))},
	)
	return t, res, nil
}
