// Command amoeba-bench regenerates the tables and figures of Kaashoek &
// Tanenbaum, "An Evaluation of the Amoeba Group Communication System"
// (ICDCS 1996), by running the group protocols over the calibrated
// discrete-event model of the paper's hardware (30 × 20-MHz MC68030,
// 10 Mbit/s Ethernet, Lance interfaces).
//
// Usage:
//
//	amoeba-bench                      # run everything
//	amoeba-bench -experiment fig4     # one experiment
//	amoeba-bench -experiment batched -json BENCH_batched.json
//	amoeba-bench -list                # list experiment ids
//
// Experiment ids: table3, fig1, fig3, fig4, fig5, fig6, fig7, fig8, rpc, cm,
// userspace, placement, processing, sharded, batched, proxied, durable,
// reshard, observed, txn, audit, reads. The last seven measure the kv store
// itself, which sits above the simulator's reach: they run on the live
// in-memory fabric in real time (see live.go).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"amoeba/internal/experiments"
	"amoeba/internal/netsim"
)

// An experiment renders a table and, when it has a machine-readable form
// (a perf trajectory file for -json), that too.
type experiment func(netsim.CostModel) (*experiments.Table, []byte, error)

func tableOnly(f func(netsim.CostModel) (*experiments.Table, error)) experiment {
	return func(m netsim.CostModel) (*experiments.Table, []byte, error) {
		t, err := f(m)
		return t, nil, err
	}
}

func batched(m netsim.CostModel) (*experiments.Table, []byte, error) {
	results, err := experiments.BatchedResults(m)
	if err != nil {
		return nil, nil, err
	}
	buf, err := experiments.BatchedJSON(results)
	return experiments.BatchedTable(results), buf, err
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		which   = flag.String("experiment", "all", "experiment id to run, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		jsonOut = flag.String("json", "", "write machine-readable results here, for experiments that support it (e.g. batched → BENCH_batched.json)")
	)
	flag.Parse()

	model := netsim.DefaultCostModel()
	exps := map[string]experiment{
		"table3":     tableOnly(experiments.Table3),
		"fig1":       tableOnly(experiments.Fig1),
		"fig3":       tableOnly(experiments.Fig3),
		"fig4":       tableOnly(experiments.Fig4),
		"fig5":       tableOnly(experiments.Fig5),
		"fig6":       tableOnly(experiments.Fig6),
		"fig7":       tableOnly(experiments.Fig7),
		"fig8":       tableOnly(experiments.Fig8),
		"rpc":        tableOnly(experiments.RPCComparison),
		"cm":         tableOnly(experiments.CMComparison),
		"userspace":  tableOnly(experiments.UserSpaceAblation),
		"placement":  tableOnly(experiments.SequencerPlacement),
		"processing": tableOnly(experiments.ProcessingScaling),
		"sharded":    tableOnly(experiments.ShardedKV),
		"batched":    batched,
	}
	for id, e := range liveExps {
		id, e := id, e
		exps[id] = func(netsim.CostModel) (*experiments.Table, []byte, error) { return e.run(id) }
	}
	order := []string{"table3", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"rpc", "cm", "userspace", "placement", "processing", "sharded", "batched", "proxied", "durable", "reshard", "observed", "txn", "audit", "reads"}

	if *list {
		ids := make([]string, 0, len(exps))
		for id := range exps {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return 0
	}

	var ids []string
	if *which == "all" {
		ids = order
	} else {
		if _, ok := exps[*which]; !ok {
			fmt.Fprintf(os.Stderr, "amoeba-bench: unknown experiment %q (try -list)\n", *which)
			return 2
		}
		ids = []string{*which}
	}
	if *jsonOut != "" && len(ids) != 1 {
		// Several experiments would each overwrite the same file; make the
		// user pick one instead of silently keeping only the last.
		fmt.Fprintf(os.Stderr, "amoeba-bench: -json needs a single -experiment (e.g. -experiment batched)\n")
		return 2
	}

	for _, id := range ids {
		table, buf, err := exps[id](model)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amoeba-bench: %s: %v\n", id, err)
			return 1
		}
		fmt.Println(table.String())
		if *jsonOut != "" && buf != nil {
			if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "amoeba-bench: writing %s: %v\n", *jsonOut, err)
				return 1
			}
		}
	}
	return 0
}
