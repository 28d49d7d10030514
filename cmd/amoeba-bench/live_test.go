package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"amoeba/obs"
)

// TestRunLoadSmoke drives the sharded workload briefly: it must make
// progress on a healthy store, and every completed op must land in the load
// harness's own metric family, amoeba_kv_load_op_ns.
func TestRunLoadSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hub := obs.NewHub(obs.Options{Node: "smoke"})
	l, err := runLoad(ctx, hub, 0, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	ops, errs := l.ops.Load(), l.errs.Load()
	if ops == 0 {
		t.Fatal("load run made no progress")
	}
	if errs > ops/10 {
		t.Fatalf("excessive errors on a healthy store: %d errors, %d ops", errs, ops)
	}
	var prom strings.Builder
	if err := hub.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "amoeba_kv_load_op_ns{") {
		t.Fatal("amoeba_kv_load_op_ns missing from the metrics export")
	}
	for _, h := range hub.Registry().Histograms() {
		if h.Name == "amoeba_kv_load_op_ns" && h.Count != ops {
			t.Fatalf("amoeba_kv_load_op_ns counted %d ops, the run completed %d", h.Count, ops)
		}
	}
	t.Logf("%d ops in %v = %.0f ops/s (%d errors)", ops, l.elapsed, l.opsPerSec(), errs)
}

// TestEnvelopeSchemaMatchesCommittedFiles: every live experiment's -json
// document has the key paths of its committed BENCH_<id>.json, so moving or
// editing an experiment cannot re-schema a trajectory file unnoticed. No
// experiment runs: the envelope wraps a zero-valued result whose slices get
// one element and whose leaves are set, so omitempty fields show.
func TestEnvelopeSchemaMatchesCommittedFiles(t *testing.T) {
	zero := map[string]any{
		"proxied":  new([]accessPath),
		"durable":  new(durableResult),
		"reshard":  new(reshardResult),
		"observed": new(observedResult),
		"txn":      new(txnResult),
		"audit":    new(auditResult),
		"reads":    new(readsResult),
	}
	for id, e := range liveExps {
		ptr, ok := zero[id]
		if !ok {
			t.Errorf("%s: no zero-valued result to check", id)
			continue
		}
		v := reflect.ValueOf(ptr).Elem()
		populate(v)
		got, err := e.envelope(id, v.Interface())
		if err != nil {
			t.Fatalf("%s: envelope: %v", id, err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+id+".json"))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if g, w := keyPaths(t, got), keyPaths(t, want); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: key paths\n got %v\nwant %v", id, g, w)
		}
	}
}

// populate sets every leaf under v to a non-zero value and gives every
// slice one element.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	default:
		panic("populate: unhandled kind " + v.Kind().String())
	}
}

// keyPaths lists every object key path in a JSON document, array elements
// folded into one "[]" step.
func keyPaths(t *testing.T, doc []byte) []string {
	t.Helper()
	var root any
	if err := json.Unmarshal(doc, &root); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				set[prefix+"."+k] = true
				walk(prefix+"."+k, child)
			}
		case []any:
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		}
	}
	walk("", root)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}
