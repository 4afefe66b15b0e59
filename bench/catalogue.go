package main

// metricDef names a metric, its unit and which way is better. Bound is
// the share of the baseline median by which an end-to-end metric may
// worsen before a change counts as a regression (per-layer metrics have
// none). BENCHMARK.json repeats this catalogue for the driver;
// TestCatalogueMatchesBenchmarkJSON keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of espd would see. Every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tuples_per_s", "tuples/s", "higher", 0.12},
	{"epoch_ms_p50", "ms", "lower", 0.15},
	{"epoch_ms_p95", "ms", "lower", 0.25},
	{"alloc_bytes_per_tuple", "B/tuple", "lower", 0.05},
	{"wal_bytes_per_tuple", "B/tuple", "lower", 0.01},
	{"recover_s", "s", "lower", 0.15},
}

// perLayer are the metrics of single layers, measured by the traced
// run. Layers are the module names.
var perLayer = []metricDef{
	// server, seen from the client: spans around Client.Publish/Advance.
	{Name: "client.publish_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.publish_us_p95", Unit: "us", Better: "lower"},
	{Name: "client.publish_calls", Unit: "count", Better: "lower"},
	{Name: "client.advance_us_p50", Unit: "us", Better: "lower"},
	// server, inside the tenant: registry histograms and counters.
	{Name: "server.rpc_publish_us_mean", Unit: "us", Better: "lower"},
	{Name: "server.rpc_advance_us_mean", Unit: "us", Better: "lower"},
	{Name: "server.ingest_commit_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.commit_delivery_us_mean", Unit: "us", Better: "lower"},
	{Name: "server.subscribers_kicked", Unit: "count", Better: "lower"},
	// socket + scheduling.
	{Name: "net.rtt_overhead_us_mean", Unit: "us", Better: "lower"},
	{Name: "net.loopback_rtt_us_p50", Unit: "us", Better: "lower"},
	// wire: layer replay.
	{Name: "wire.encode_publish_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "wire.decode_publish_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "wire.encode_data_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "wire.decode_data_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "wire.frame_bytes_per_tuple", Unit: "B/tuple", Better: "lower"},
	// wal: layer replay.
	{Name: "wal.journal_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "wal.commit_us_per_epoch", Unit: "us", Better: "lower"},
	{Name: "wal.scan_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "wal.publish_records", Unit: "count", Better: "lower"},
	{Name: "wal.bytes", Unit: "B", Better: "lower"},
	{Name: "wal.commit_sync_us_p50", Unit: "us", Better: "lower"},
	// receptor: layer replay and gauge.
	{Name: "receptor.publish_poll_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "receptor.channel_dropped", Unit: "count", Better: "lower"},
	// core / stream: the in-process run and its counters.
	{Name: "core.step_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.step_us_p95", Unit: "us", Better: "lower"},
	{Name: "core.batch_fallback_share", Unit: "share", Better: "lower"},
	{Name: "stage.point.tuples", Unit: "count", Better: "lower"},
	{Name: "stage.smooth.tuples", Unit: "count", Better: "lower"},
	{Name: "stage.merge.tuples", Unit: "count", Better: "lower"},
	{Name: "stage.arbitrate.tuples", Unit: "count", Better: "lower"},
	{Name: "core.step_us.shelf", Unit: "us", Better: "lower"},
	{Name: "core.step_us.lab", Unit: "us", Better: "lower"},
	{Name: "core.step_us.home", Unit: "us", Better: "lower"},
	// the whole stack without sockets or WAL.
	{Name: "engine.tuples_per_s", Unit: "tuples/s", Better: "higher"},
	// cql + sim: set-up only.
	{Name: "cql.create_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.generate_s", Unit: "s", Better: "lower"},
	// telemetry / runtime: a sanity row.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
}
