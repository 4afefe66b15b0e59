package server

import (
	"fmt"
	"sort"
	"strings"

	"esp/internal/telemetry"
)

// This file generates docs/METRICS.md from a booted daemon: the doc is
// a registry walk, not hand-maintained prose, so a metric cannot ship
// without documentation (TestMetricsDocDrift fails the build when the
// committed doc no longer matches what a live server registers).

// MetricFamily is one documented metric family: a registered name with
// per-instance tokens (tenant type names, node labels, receptor IDs)
// collapsed to placeholders, plus its kind and help string.
type MetricFamily struct {
	Scope string // "server" (daemon registry) or "tenant" (per-tenant registry)
	Name  string // normalized family name
	Kind  string // counter | gauge | histogram
	Help  string
}

// familyOf collapses one registered metric name to its family:
//
//	node.leg rfid r0@shelf0.tuples_in  -> node.<label>.tuples_in
//	node.legs rfid.tuples_in           -> node.<label>.tuples_in
//	stage.rfid/Point.tuples            -> stage.<type>/Point.tuples
//	poll.rfid.tuples                   -> poll.<type>.tuples
//	receptor.r0.channel_pending        -> receptor.<id>.channel_pending
//
// Everything else documents under its literal name.
func familyOf(name string) string {
	switch {
	case strings.HasPrefix(name, "node."):
		rest := name[len("node."):]
		i := strings.LastIndex(rest, ".")
		if i < 0 {
			return name
		}
		return "node.<label>." + rest[i+1:]
	case strings.HasPrefix(name, "stage.") && strings.Contains(name, "/"):
		i := strings.Index(name, "/")
		return "stage.<type>" + name[i:]
	case strings.HasPrefix(name, "poll.") && strings.HasSuffix(name, ".tuples"):
		return "poll.<type>.tuples"
	case strings.HasPrefix(name, "receptor."):
		rest := name[len("receptor."):]
		i := strings.LastIndex(rest, ".")
		if i < 0 {
			return name
		}
		return "receptor.<id>." + rest[i+1:]
	}
	return name
}

// metricHelp documents the families whose help is not registered with
// Describe at the metric itself (per-instance names cannot carry one
// Describe each). A registered family missing from both sources fails
// doc generation — that is the "no undocumented metrics" gate.
var metricHelp = map[string]string{
	// Daemon-wide.
	"server_conns":        "connections accepted since boot",
	"server_conns_active": "connections currently open",
	"server_tenants":      "tenants currently hosted",
	"conn_idle_kills":     "connections killed by the idle read deadline",

	// Per-tenant serving counters.
	"serve_tuples_in":          "tuples accepted by Publish",
	"serve_publish_frames":     "Publish frames applied",
	"serve_rejected_tuples":    "published tuples refused for not matching the receptor schema (whole frames; at replay, skipped journal records)",
	"serve_epochs":             "epoch boundaries committed",
	"serve_data_frames":        "Data frames flushed to subscribers",
	"serve_subscribers_kicked": "subscribers dropped for not draining their buffer",
	"serve_reconnects":         "session re-attaches (Hello on an existing session ID)",
	"serve_resumes":            "subscriber resumes that replayed a backlog",
	"serve_dedup_drops":        "publishes dropped as session-replay duplicates",
	"serve_backlog":            "tuples buffered in receptor channels awaiting the next epoch",
	"rpc_publish":              "Publish frames received (before dedup)",
	"rpc_advance":              "Advance frames received",
	"rpc_subscribe":            "Subscribe frames received",
	"rpc_stats":                "Stats frames received",
	"rpc_publish_ns":           "server-side Publish handling latency",
	"rpc_advance_ns":           "server-side Advance handling latency (includes the commit barrier)",

	// Pipeline stage accounting (per receptor type).
	"stage.<type>/Point.tuples":     "tuples released by the Point stage",
	"stage.<type>/Smooth.tuples":    "tuples released by the Smooth stage",
	"stage.<type>/Merge.tuples":     "tuples released by the Merge stage",
	"stage.<type>/Arbitrate.tuples": "tuples released by the Arbitrate stage",
	"stage.virtualize.tuples":       "tuples released by the Virtualize stage",
	"poll.<type>.tuples":            "tuples polled from receptors of this type",

	// Dataflow node internals (label = "<kind> <instance>", kinds:
	// leg, merge, arbitrate, output, virtualize).
	"node.<label>.tuples_in":         "tuples entering the node",
	"node.<label>.tuples_out":        "tuples the node released downstream",
	"node.<label>.batches_in":        "columnar batches entering the node",
	"node.<label>.batch_rows":        "rows carried by those batches",
	"node.<label>.batch_fallbacks":   "batches that fell back to row-at-a-time execution",
	"node.<label>.panics":            "operator panics caught by the supervisor",
	"node.<label>.advance_ns":        "node punctuation (epoch advance) latency",
	"node.<label>.quarantined":       "1 while the node is quarantined by the health FSM",
	"node.<label>.window_panes":      "window panes currently held by the node's operators",
	"node.<label>.window_late_drops": "tuples dropped for arriving later than the window allows",

	// Bounded channel receptors.
	"receptor.<id>.channel_pending": "readings buffered in the receptor channel",
	"receptor.<id>.channel_dropped": "readings evicted from the receptor channel (overflow)",

	// Write-ahead log.
	"wal_publish_records": "publish records appended to the journal",
	"wal_publish_tuples":  "tuples carried by those records",
	"wal_commits":         "epoch commit barriers appended",
	"wal_bytes":           "bytes appended to the journal",
	"wal_output_records":  "output records appended to the archive",
	"wal_rotations":       "segment rotations",
	"wal_fsync_ns":        "commit-barrier fsync latency",
	"wal_replayed_epochs": "epochs replayed from the journal at boot",
	"wal_replayed_tuples": "tuples replayed from the journal at boot",
}

// familiesFromRegistry walks one registry snapshot into sorted
// families, resolving help from the registry's own Describe first and
// the metricHelp table second. An undocumented family is an error.
func familiesFromRegistry(scope string, r *telemetry.Registry) ([]MetricFamily, error) {
	s := r.Snapshot()
	byName := make(map[string]MetricFamily)
	add := func(raw, kind string) error {
		fam := familyOf(raw)
		if prev, ok := byName[fam]; ok {
			if prev.Kind != kind {
				return fmt.Errorf("family %q maps to both %s and %s", fam, prev.Kind, kind)
			}
			return nil
		}
		help := r.Help(raw)
		if help == "" {
			help = metricHelp[fam]
		}
		if help == "" {
			return fmt.Errorf("metric %q (family %q) has no help: add a Describe or a metricHelp entry", raw, fam)
		}
		byName[fam] = MetricFamily{Scope: scope, Name: fam, Kind: kind, Help: help}
		return nil
	}
	for n := range s.Counters {
		if err := add(n, "counter"); err != nil {
			return nil, err
		}
	}
	for n := range s.Gauges {
		if err := add(n, "gauge"); err != nil {
			return nil, err
		}
	}
	for n := range s.Histograms {
		if err := add(n, "histogram"); err != nil {
			return nil, err
		}
	}
	fams := make([]MetricFamily, 0, len(byName))
	for _, f := range byName {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams, nil
}

// MetricFamilies documents every metric the daemon and its tenants
// register: the server registry under scope "server" and the union of
// all tenant registries under scope "tenant". Call on a booted server
// whose tenants exercise every registration path the doc should cover.
func (s *Server) MetricFamilies() ([]MetricFamily, error) {
	out, err := familiesFromRegistry("server", s.reg)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var tenant []MetricFamily
	for _, nr := range s.eng.Registries() {
		fams, err := familiesFromRegistry("tenant", nr.Registry)
		if err != nil {
			return nil, err
		}
		for _, f := range fams {
			if !seen[f.Name] {
				seen[f.Name] = true
				tenant = append(tenant, f)
			}
		}
	}
	sort.Slice(tenant, func(i, j int) bool { return tenant[i].Name < tenant[j].Name })
	return append(out, tenant...), nil
}

// RenderMetricsDoc renders the families as the docs/METRICS.md page.
func RenderMetricsDoc(fams []MetricFamily) string {
	var b strings.Builder
	b.WriteString("# Metrics\n\n")
	b.WriteString("Generated by the registry walk in `internal/server/metricsdoc.go`\n")
	b.WriteString("(`go test ./internal/server -run TestMetricsDocDrift -update`).\n")
	b.WriteString("Do not edit by hand — the drift test fails the build when this page\n")
	b.WriteString("no longer matches what a booted daemon registers.\n\n")
	b.WriteString("Prometheus exposition renders counters with a `_total` suffix and an\n")
	b.WriteString("`esp_` (server) or `esp_tenant_<name>_` (tenant) prefix; histograms\n")
	b.WriteString("render as summaries with `quantile` labels plus `_sum`/`_count`/`_max`.\n")
	b.WriteString("Placeholders: `<type>` a receptor type, `<id>` a receptor ID,\n")
	b.WriteString("`<label>` a dataflow node label (`<kind> <instance>`, kinds: leg,\n")
	b.WriteString("merge, arbitrate, output, virtualize). A type whose Point/Smooth or\n")
	b.WriteString("Merge plan is partitionable runs as one node — `legs <type>`,\n")
	b.WriteString("`merges <type>`, kinds leg and merge — in place of one `leg <type>\n")
	b.WriteString("<receptor>@<group>` per leg and one `merge <type> <group>` per group;\n")
	b.WriteString("sum `node.*` over the labels for totals that hold either way.\n")
	scope := ""
	for _, f := range fams {
		if f.Scope != scope {
			scope = f.Scope
			switch scope {
			case "server":
				b.WriteString("\n## Daemon (server registry)\n\n")
			case "tenant":
				b.WriteString("\n## Per-tenant registries\n\n")
			}
			b.WriteString("| metric | kind | help |\n|---|---|---|\n")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", f.Name, f.Kind, f.Help)
	}
	return b.String()
}
