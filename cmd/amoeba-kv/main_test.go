package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWireTokens: every value survives token → splitLine → untoken as one
// protocol field, whatever bytes it holds.
func TestWireTokens(t *testing.T) {
	for _, v := range []string{
		"plain", "héllo", "two words", "tab\there", `say "hi"`, `back\slash`,
		"line\nbreak", "back`quote", "\xff\xfeinvalid", "", "-",
	} {
		tok := token([]byte(v))
		fields, err := splitLine("PUT k " + tok + "\t ")
		if err != nil {
			t.Fatalf("%q: splitLine(%q): %v", v, tok, err)
		}
		if len(fields) != 3 || fields[2] != tok {
			t.Fatalf("%q: token %q split into %q", v, tok, fields)
		}
		got, err := untoken(fields[2])
		if err != nil || string(got) != v {
			t.Fatalf("%q: untoken(%q) = %q, %v", v, tok, got, err)
		}
	}
	if _, err := splitLine(`PUT k "unterminated`); err == nil {
		t.Fatal("unterminated quote split without error")
	}
	if _, err := untoken(`"bad \q escape"`); err == nil {
		t.Fatal("bad escape untokened without error")
	}
}

// requiredFamilies are the metric families the product server must export:
// every pipeline stage and every tier's counters.
var requiredFamilies = []string{
	// Sequencer pipeline stages.
	"amoeba_seq_append_ns",
	"amoeba_seq_multicast_ns",
	"amoeba_seq_batch_fill",
	// Delivery and apply.
	"amoeba_group_deliver_wait_ns",
	"amoeba_replica_apply_ns",
	// Durable tier.
	"amoeba_wal_append_ns",
	"amoeba_wal_appends_total",
	"amoeba_wal_checkpoints_rejected_total",
	// Core protocol counters.
	"amoeba_core_sent_total",
	"amoeba_core_ordered_total",
	"amoeba_core_delivered_total",
	// Access tier.
	"amoeba_kv_client_local_ops_total",
	"amoeba_kv_client_remote_ops_total",
	"amoeba_kv_service_served_total",
	"amoeba_kv_service_forwarded_total",
	// Transaction tier.
	"amoeba_kv_txn_prepare_ns",
	"amoeba_kv_txn_resolve_ns",
	"amoeba_kv_txn_total_ns",
	"amoeba_kv_client_txn_committed_total",
	"amoeba_kv_client_txn_conflict_retries_total",
	// Read-lease tier.
	"amoeba_kv_lease_reads_total",
	"amoeba_kv_lease_fallbacks_total",
	"amoeba_kv_stale_reads_total",
	"amoeba_kv_stale_fallbacks_total",
	"amoeba_kv_client_lease_reads_total",
	"amoeba_kv_client_stale_reads_total",
	"amoeba_core_lease_grants_total",
	"amoeba_core_lease_renewals_total",
	// Self-audit tier.
	"amoeba_health_reports_total",
	"amoeba_health_audits_total",
	"amoeba_health_divergence_total",
	"amoeba_health_apply_lag",
	"amoeba_health_audit_staleness_ms",
	"amoeba_health_diverged",
}

// lineConn is a scripted client of the line protocol.
type lineConn struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
}

// dial connects a scripted client to the server at addr.
func dial(t *testing.T, addr string) *lineConn {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(2 * time.Minute))
	return &lineConn{t: t, conn: conn, sc: bufio.NewScanner(conn)}
}

// do sends one command line and returns its one-line reply.
func (c *lineConn) do(cmd string) string {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.conn, cmd); err != nil {
		c.t.Fatalf("send %q: %v", cmd, err)
	}
	if !c.sc.Scan() {
		c.t.Fatalf("%q: connection closed (%v)", cmd, c.sc.Err())
	}
	return c.sc.Text()
}

// expect sends cmd and fails unless the reply is want.
func (c *lineConn) expect(cmd, want string) {
	c.t.Helper()
	if got := c.do(cmd); got != want {
		c.t.Fatalf("%s -> %q, want %q", cmd, got, want)
	}
}

// multi sends cmd and returns the reply lines before END.
func (c *lineConn) multi(cmd string) []string {
	c.t.Helper()
	var lines []string
	for line := c.do(cmd); line != "END"; {
		lines = append(lines, line)
		if !c.sc.Scan() {
			c.t.Fatalf("%q: connection closed before END", cmd)
		}
		line = c.sc.Text()
	}
	return lines
}

// metrics scrapes METRICS into family → summed sample value.
func (c *lineConn) metrics() map[string]uint64 {
	c.t.Helper()
	out := map[string]uint64{}
	for _, line := range c.multi("METRICS") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		v, _ := strconv.ParseUint(val, 10, 64)
		out[name] += v
	}
	return out
}

// TestServeLineProtocol boots the product server — durable, leased and
// self-auditing — on a loopback listener and drives every wire verb over
// TCP: answers must be right, a live reshard must keep every key, malformed
// lines must answer ERR without dropping the connection, and METRICS must
// export every required family with the counters the session moved.
func TestServeLineProtocol(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{shards: 4, nodes: 3, resilience: 1, dataDir: t.TempDir(),
		leases: true, traceMod: 1, auditEvery: 100 * time.Millisecond}
	done := make(chan int, 1)
	go func() { done <- serve(ln, cfg) }()
	defer func() {
		ln.Close()
		if rc := <-done; rc != 0 {
			t.Errorf("serve returned %d after its listener closed", rc)
		}
	}()
	c := dial(t, ln.Addr().String())
	defer c.conn.Close()

	// Single-key verbs.
	c.expect("PUT a 1", "OK")
	c.expect(`PUT b "two words"`, "OK")
	c.expect("GET a", "VALUE 1")
	c.expect("get b", `VALUE "two words"`)
	c.expect("GET missing", "NOTFOUND")
	for deadline := time.Now().Add(20 * time.Second); c.do("LGET a") != "VALUE 1"; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("LGET a never saw the PUT")
		}
	}
	c.expect("CAS a 1 2", "OK true")
	c.expect("CAS a 1 3", "OK false")
	c.expect("CAS c - new", "OK true")
	c.expect("CAS c - again", "OK false")
	c.expect("DEL c", "OK true")
	c.expect("DEL c", "OK false")
	c.expect("MGET a b missing", `VALUE a=2 b="two words"`)

	// Transactions.
	c.expect("TXN PUT t1 10 PUT t2 20", "COMMITTED")
	c.expect("TXN GET t1 GET t2", "COMMITTED t1=10 t2=20")
	c.expect("TXN IF t1 99 PUT t1 0", "ABORTED")
	c.expect("TXN IF t1 10 IF t3 - DEL t2 GET t1", "COMMITTED t1=10")
	c.expect("GET t2", "NOTFOUND")

	// Read leases: once they arm, GETs are served from them, and a GET
	// right after a PUT must still see the PUT.
	readYourWrite := func(i int) {
		c.expect(fmt.Sprintf("PUT rw %d", i), "OK")
		c.expect("GET rw", fmt.Sprintf("VALUE %d", i))
	}
	i := 0
	for ; c.metrics()["amoeba_kv_lease_reads_total"] == 0; i++ {
		if i == 500 {
			t.Fatal("no GET was served from a read lease")
		}
		readYourWrite(i)
	}
	leased := c.metrics()["amoeba_kv_lease_reads_total"]
	for end := i + 20; i < end; i++ {
		readYourWrite(i)
	}
	if c.metrics()["amoeba_kv_lease_reads_total"] == leased {
		t.Fatal("GETs under armed leases were not served from them")
	}
	// Bounded-staleness reads report a staleness within the bound.
	staleFor := func(reply string) time.Duration {
		_, d, ok := strings.Cut(reply, "stale-for=")
		dur, err := time.ParseDuration(d)
		if !ok || err != nil {
			t.Fatalf("SGET reply %q has no stale-for", reply)
		}
		return dur
	}
	for i := 0; c.metrics()["amoeba_kv_stale_reads_total"] == 0; i++ {
		if i == 500 {
			t.Fatal("no SGET was served at bounded staleness")
		}
		reply := c.do("SGET a 1s")
		if !strings.HasPrefix(reply, "VALUE 2 ") || staleFor(reply) > time.Second {
			t.Fatalf("SGET a 1s -> %q", reply)
		}
	}
	if reply := c.do("SGET missing 500ms"); !strings.HasPrefix(reply, "NOTFOUND ") || staleFor(reply) > 500*time.Millisecond {
		t.Fatalf("SGET missing 500ms -> %q", reply)
	}

	// The self-audit rolls up ok. (Checked before the reshard: a merge
	// leaves the retired shards' audit scopes behind, and once they go
	// stale the rollup reads degraded.)
	deadline := time.Now().Add(20 * time.Second)
	for h := c.multi("HEALTH"); !strings.HasPrefix(h[0], "health: ok"); h = c.multi("HEALTH") {
		if time.Now().After(deadline) {
			t.Fatalf("HEALTH never rolled up ok: %q", h)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if top := c.multi("TOP"); len(top) < 3 || !strings.HasPrefix(top[0], "health: ") || !strings.HasPrefix(top[1], "SCOPE") {
		t.Fatalf("TOP -> %q", top)
	}

	// Live split and merge under a writer on a second connection: every
	// key survives both handoffs and no write fails.
	w := dial(t, ln.Addr().String())
	defer w.conn.Close()
	stop, wrote := make(chan struct{}), make(chan error, 1)
	go func() {
		for n := 0; ; n++ {
			select {
			case <-stop:
				if n == 0 {
					wrote <- fmt.Errorf("wrote nothing")
				}
				close(wrote)
				return
			default:
			}
			_, err := fmt.Fprintf(w.conn, "PUT live-%d %d\n", n%64, n)
			if err == nil && !w.sc.Scan() {
				err = fmt.Errorf("connection closed: %v", w.sc.Err())
			}
			if err == nil && w.sc.Text() != "OK" {
				err = fmt.Errorf("PUT %d -> %q", n, w.sc.Text())
			}
			if err != nil {
				wrote <- err
				return
			}
		}
	}()
	c.expect("RESHARD 8", "OK epoch=1 shards=8")
	c.expect("MGET a b t1", `VALUE a=2 b="two words" t1=10`)
	c.expect("RESHARD 4", "OK epoch=2 shards=4")
	c.expect("MGET a b t1", `VALUE a=2 b="two words" t1=10`)
	close(stop)
	if err := <-wrote; err != nil {
		t.Fatalf("writer across the handoffs: %v", err)
	}
	if st := c.do("STATS"); !strings.HasPrefix(st, "STATS shards=4 epoch=2 ") {
		t.Fatalf("STATS -> %q", st)
	}

	// Malformed lines answer ERR and the connection stays up.
	for _, line := range []string{
		`PUT k "unterminated`,
		"PUT k", "GET", "GET a b", "MGET", "DEL", "DEL a b", "CAS a 1", "LGET",
		"SGET a", "TRACE", "RESHARD", "TXN",
		"FROB a",
		"SGET a soon", "SGET a -1s",
		"RESHARD many", "RESHARD 0",
		"TXN PUT k", "TXN GET", "TXN DEL", "TXN IF k", "TXN FROB k",
		`PUT k "bad \q"`,
		"TRACE x",
	} {
		if reply := c.do(line); !strings.HasPrefix(reply, "ERR ") {
			t.Fatalf("%s -> %q, want ERR", line, reply)
		}
	}
	c.expect("GET a", "VALUE 2")

	// Observability verbs.
	ids := c.multi("TRACES")
	if len(ids) == 0 {
		t.Fatal("TRACES listed nothing with every op traced")
	}
	if tr := c.multi("TRACE " + ids[len(ids)-1]); len(tr) < 2 || tr[0] != "trace "+ids[len(ids)-1] {
		t.Fatalf("TRACE %s -> %q", ids[len(ids)-1], tr)
	}
	if fl := c.multi("FLIGHT"); len(fl) == 0 {
		t.Fatal("FLIGHT dumped nothing")
	}

	m := c.metrics()
	for _, name := range requiredFamilies {
		if _, ok := m[name]; !ok {
			t.Errorf("required family %s missing from METRICS", name)
		}
	}
	for _, name := range []string{
		"amoeba_kv_client_txn_committed_total", "amoeba_wal_appends_total",
		"amoeba_health_audits_total", "amoeba_core_lease_grants_total",
	} {
		if m[name] == 0 {
			t.Errorf("%s = 0 after a session that should have moved it", name)
		}
	}
	if m["amoeba_health_divergence_total"] != 0 {
		t.Errorf("honest store reported %d divergences", m["amoeba_health_divergence_total"])
	}
	c.expect("QUIT", "BYE")
}
