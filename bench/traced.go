package main

import (
	"fmt"
	"strings"

	"esp/internal/telemetry"
)

// attributionRow is one row of the per-epoch cost breakdown: where the
// wall time of one served epoch goes, in the order a tuple crosses the
// layers.
type attributionRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us_per_epoch"`
	Share float64 `json:"share"`
	How   string  `json:"how"`
}

// histMean is the mean of a registry histogram over the timed epochs,
// in nanoseconds. Registry histograms have log2 buckets, so their
// percentiles are powers of two; Sum/Count is exact.
func histMean(before, after telemetry.Snapshot, name string) float64 {
	a, b := after.Histograms[name], before.Histograms[name]
	if a.Count == b.Count {
		return 0
	}
	return float64(a.Sum-b.Sum) / float64(a.Count-b.Count)
}

// layerMetrics turns the traced run into the per-layer metrics and the
// attribution table: spans of the last traced run, the tenant registry
// around its timed epochs, the layer replays, and the oracle run.
func layerMetrics(w *workload, oracle *oracleResult, plain, traced []*servedResult, rec *recorder, dir string, strict bool) (map[string]float64, []attributionRow, error) {
	m := make(map[string]float64)
	last := traced[len(traced)-1]
	from, to := w.Epochs[warmEpochs].Now.UnixNano(), w.Epochs[len(w.Epochs)-1].Now.UnixNano()
	nEpochs := float64(len(w.Epochs) - warmEpochs)

	// server, seen from the client.
	pubUs := rec.durationsUs("client.publish", -1, from, to)
	advUs := rec.durationsUs("client.advance", 0, from, to)
	var err error
	if m["client.publish_us_p50"], err = percentileOr(pubUs, 50, strict); err != nil {
		return nil, nil, fmt.Errorf("client.publish: %w", err)
	}
	if m["client.publish_us_p95"], err = percentileOr(pubUs, 95, strict); err != nil {
		return nil, nil, fmt.Errorf("client.publish: %w", err)
	}
	m["client.publish_calls"] = float64(len(pubUs))
	m["client.advance_us_p50"] = quantile(advUs, 0.5)

	// server, inside the tenant.
	b, a := last.Before, last.After
	m["server.rpc_publish_us_mean"] = histMean(b, a, "rpc_publish_ns") / 1e3
	m["server.rpc_advance_us_mean"] = histMean(b, a, "rpc_advance_ns") / 1e3
	m["server.ingest_commit_ms_mean"] = histMean(b, a, "slo_ingest_commit_ns") / 1e6
	m["server.commit_delivery_us_mean"] = histMean(b, a, "slo_commit_delivery_ns") / 1e3
	m["server.subscribers_kicked"] = float64(a.Counters["serve_subscribers_kicked"])
	m["receptor.channel_dropped"] = float64(sumNamed(a.Gauges, "receptor.", ".channel_dropped"))
	m["net.rtt_overhead_us_mean"] = mean(pubUs) - m["server.rpc_publish_us_mean"]

	// Layer replays.
	if err := wireReplay(w, oracle.Data, rec, m); err != nil {
		return nil, nil, err
	}
	if err := walReplay(w, oracle.Data, dir, rec, m); err != nil {
		return nil, nil, err
	}
	if err := receptorReplay(w, rec, m); err != nil {
		return nil, nil, err
	}
	if err := loopbackRTT(w, rec, m); err != nil {
		return nil, nil, err
	}
	if err := paperDeployments(m); err != nil {
		return nil, nil, err
	}

	// core / stream: the oracle run, timed outside Tenant.Advance.
	m["core.step_us_mean"] = mean(oracle.AdvanceUs)
	if m["core.step_us_p95"], err = percentileOr(oracle.AdvanceUs, 95, strict); err != nil {
		return nil, nil, fmt.Errorf("core.step: %w", err)
	}
	m["core.batch_fallback_share"] = 0
	if in := sumNamed(oracle.Counters, "node.", ".batches_in"); in > 0 {
		m["core.batch_fallback_share"] = float64(sumNamed(oracle.Counters, "node.", ".batch_fallbacks")) / float64(in)
	}
	for _, stage := range []string{"Point", "Smooth", "Merge", "Arbitrate"} {
		m["stage."+strings.ToLower(stage)+".tuples"] = float64(sumNamed(oracle.Counters, "stage.", "/"+stage+".tuples"))
	}
	m["engine.tuples_per_s"] = oracle.TuplesPerS
	m["cql.create_ms"] = last.CreateMs
	m["sim.generate_s"] = last.GenerateS
	m["runtime.gc_pause_ms"] = last.GCPauseMs

	// telemetry: traced against untraced throughput.
	tput := func(rs []*servedResult) float64 {
		var v []float64
		for _, r := range rs {
			v = append(v, r.E2E["tuples_per_s"])
		}
		return quantile(v, 0.5)
	}
	m["trace.overhead_pct"] = 100 * (1 - tput(traced)/tput(plain))

	// Attribution: connection 0's chain (it also carries the advance),
	// per epoch. Layer rows are replay cost × the work connection 0 does
	// in an epoch; `client` is what the spans leave of the epoch outside
	// connection 0's calls; `unattributed` is the rest, stated, not
	// spread over the rows.
	var frames0, tuples0 float64
	for _, ep := range w.Epochs[warmEpochs:] {
		frames0 += float64(len(ep.Frames[0]))
		for _, f := range ep.Frames[0] {
			tuples0 += float64(len(f.Tuples))
		}
	}
	frames0 /= nEpochs
	tuples0 /= nEpochs
	var outTuples float64
	for _, d := range oracle.Data {
		outTuples += float64(len(d.Tuples))
	}
	outTuples /= nEpochs
	epochUs, tailUs := mean(last.EpochWallUs), mean(last.TailUs)
	// Connection 0's time inside Publish and Advance, per epoch.
	inCalls := 0.0
	for _, us := range append(rec.durationsUs("client.publish", 0, from, to), advUs...) {
		inCalls += us
	}
	inCalls /= nEpochs

	rows := []attributionRow{
		{Layer: "socket read+write", Us: m["net.loopback_rtt_us_p50"] * (frames0 + 1), How: "loopback echo round trip x (conn-0 frames + advance)"},
		{Layer: "frame decode", Us: (m["wire.decode_publish_ns_per_tuple"]*tuples0 + m["wire.decode_data_ns_per_tuple"]*outTuples) / 1e3, How: "wire replay x conn-0 tuples + output tuples"},
		{Layer: "journal append", Us: m["wal.journal_ns_per_tuple"] * tuples0 / 1e3, How: "wal replay x conn-0 tuples"},
		{Layer: "channel", Us: m["receptor.publish_poll_ns_per_tuple"] * tuples0 / 1e3, How: "receptor replay x conn-0 tuples"},
		{Layer: "pipeline step", Us: histMean(b, a, "serve_step_ns") / 1e3, How: "serve_step_ns mean"},
		{Layer: "archive/commit", Us: m["wal.commit_us_per_epoch"], How: "wal replay, per epoch"},
		{Layer: "frame encode", Us: (m["wire.encode_publish_ns_per_tuple"]*tuples0 + m["wire.encode_data_ns_per_tuple"]*outTuples) / 1e3, How: "wire replay x conn-0 tuples + output tuples"},
		{Layer: "socket write (push)", Us: tailUs, How: "Data frame read after the advance ack"},
		{Layer: "client", Us: epochUs - tailUs - inCalls, How: "first publish -> advance ack, outside conn-0 Publish/Advance calls"},
	}
	attributed := 0.0
	for _, r := range rows {
		attributed += r.Us
	}
	rows = append(rows, attributionRow{Layer: "unattributed", Us: epochUs - attributed, How: "epoch wall - rows above"})
	rows = append(rows, attributionRow{Layer: "epoch wall", Us: epochUs, How: "first publish -> advance ack and Data frame read, mean"})
	for i := range rows {
		rows[i].Share = rows[i].Us / epochUs
	}
	m["trace.unattributed_share"] = (epochUs - attributed) / epochUs
	return m, rows, nil
}

func printAttribution(out *strings.Builder, rows []attributionRow) {
	fmt.Fprintf(out, "  per-epoch attribution (connection 0's chain):\n")
	for _, r := range rows {
		fmt.Fprintf(out, "    %-20s %12.1f us %6.1f%%  %s\n", r.Layer, r.Us, 100*r.Share, r.How)
	}
}
