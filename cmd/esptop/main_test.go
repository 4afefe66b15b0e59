package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// metricsJSON is a captured /metrics.json shape: daemon registry under
// "", one tenant registry keyed by name.
const metricsJSON = `{
  "": {
    "enabled": true,
    "counters": {"server_conns": 7},
    "gauges": {"server_conns_active": 2, "server_tenants": 1},
    "histograms": {}
  },
  "tenant_acme": {
    "enabled": true,
    "counters": {"serve_epochs": 10, "serve_tuples_in": 5000, "rpc_errors": 1},
    "gauges": {"serve_backlog": 3, "slo_staleness_ns": 250000000},
    "histograms": {
      "serve_step_ns": {"count": 10, "sum_ns": 1000000, "max_ns": 200000, "p50_ns": 90000, "p90_ns": 150000, "p99_ns": 200000},
      "slo_ingest_commit_ns": {"count": 10, "sum_ns": 9000000, "max_ns": 1200000, "p50_ns": 800000, "p90_ns": 1000000, "p99_ns": 1200000},
      "slo_commit_delivery_ns": {"count": 10, "sum_ns": 400000, "max_ns": 70000, "p50_ns": 30000, "p90_ns": 50000, "p99_ns": 70000}
    }
  }
}`

func servedPoll(t *testing.T, body string) pollResult {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics.json" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body)) //nolint:errcheck
	}))
	defer srv.Close()
	pr, err := poll(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestPollAndRenderFirstFrame(t *testing.T) {
	cur := servedPoll(t, metricsJSON)
	out := render(cur, pollResult{}, 0)
	for _, want := range []string{
		"conns=7", "active=2", "tenants=1",
		"TENANT", "acme",
		"250ms", // staleness
		"200µs", // step p99
		"1.2ms", // ingest p99
		"70µs",  // delivery p99
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// No previous poll: rates are unknown, not zero.
	if !strings.Contains(out, "-") {
		t.Errorf("first frame should render '-' rates:\n%s", out)
	}
	// The registry key carries the exposition prefix; the table shows
	// the tenant's own name, matching /statusz.
	if strings.Contains(out, "tenant_acme") {
		t.Errorf("registry prefix leaked into the table:\n%s", out)
	}
}

func TestRenderRates(t *testing.T) {
	prev := servedPoll(t, metricsJSON)
	next := strings.Replace(metricsJSON, `"serve_epochs": 10`, `"serve_epochs": 12`, 1)
	next = strings.Replace(next, `"serve_tuples_in": 5000`, `"serve_tuples_in": 6000`, 1)
	cur := servedPoll(t, next)
	out := render(cur, prev, 2*time.Second)
	if !strings.Contains(out, "500.0") { // (6000-5000)/2s
		t.Errorf("tuple rate missing:\n%s", out)
	}
	if !strings.Contains(out, "1.0") { // (12-10)/2s
		t.Errorf("epoch rate missing:\n%s", out)
	}
}

func TestPollBareSnapshot(t *testing.T) {
	// A daemon with no tenant registries serves one bare snapshot
	// object; poll must accept it under the "" key.
	cur := servedPoll(t, `{"enabled":true,"counters":{"server_conns":3},"gauges":{},"histograms":{}}`)
	if cur.snaps[""].Counters["server_conns"] != 3 {
		t.Fatalf("bare snapshot not decoded: %+v", cur.snaps)
	}
	out := render(cur, pollResult{}, 0)
	if !strings.Contains(out, "no tenants") {
		t.Errorf("bare frame should say no tenants:\n%s", out)
	}
}
