package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"esp/internal/exp"
	"esp/internal/receptor"
	"esp/internal/server"
	"esp/internal/stream"
	"esp/internal/telemetry"
	"esp/internal/wal"
	"esp/internal/wire"
)

// Layer replays: the workload's own timed frames through one layer's
// public functions, on one goroutine, with nothing else running. Each
// gives the layer's busy time per tuple (or per epoch) in isolation —
// the figure the attribution table multiplies back up.

// replayPasses is how many times a replay runs; the median pass is kept.
const replayPasses = 3

// replay times body replayPasses times, records each pass as a span,
// and returns the median pass's nanoseconds per unit of work.
func replay(rec *recorder, name string, units int, body func() error) (float64, error) {
	var ns []float64
	for i := 0; i < replayPasses; i++ {
		t0 := time.Now()
		if err := body(); err != nil {
			return 0, fmt.Errorf("%s replay: %w", name, err)
		}
		t1 := time.Now()
		rec.add(0, name, laneMain, 0, t0, t1)
		ns = append(ns, float64(t1.Sub(t0))/float64(units))
	}
	return quantile(ns, 0.5), nil
}

// timedFrames lists the publish frames of the timed epochs in send order.
func timedFrames(w *workload) []pubFrame {
	var fs []pubFrame
	for _, ep := range w.Epochs[warmEpochs:] {
		for _, c := range ep.Frames {
			fs = append(fs, c...)
		}
	}
	return fs
}

// wireReplay measures the wire layer on the workload's publish frames
// and on the oracle's Data frames.
func wireReplay(w *workload, data []wire.Data, rec *recorder, m map[string]float64) error {
	frames := timedFrames(w)
	encoded := make([][]byte, len(frames))
	tuples, bytes := 0, 0
	for i, f := range frames {
		encoded[i] = wire.AppendFrame(nil, wire.Publish{Receptor: f.Receptor, Seq: uint64(i + 1), Tuples: f.Tuples}.Frame())
		tuples += len(f.Tuples)
		bytes += len(encoded[i])
	}
	encodedData := make([][]byte, len(data))
	outTuples := 0
	for i, d := range data {
		encodedData[i] = wire.AppendFrame(nil, d.Frame())
		outTuples += len(d.Tuples)
	}
	if tuples == 0 || outTuples == 0 {
		return fmt.Errorf("wire replay: workload has %d input and %d output tuples", tuples, outTuples)
	}
	m["wire.frame_bytes_per_tuple"] = float64(bytes) / float64(tuples)

	var buf []byte
	var err error
	if m["wire.encode_publish_ns_per_tuple"], err = replay(rec, "wire.encode_publish", tuples, func() error {
		for i, f := range frames {
			buf = wire.AppendFrame(buf[:0], wire.Publish{Receptor: f.Receptor, Seq: uint64(i + 1), Tuples: f.Tuples}.Frame())
		}
		return nil
	}); err != nil {
		return err
	}
	if m["wire.decode_publish_ns_per_tuple"], err = replay(rec, "wire.decode_publish", tuples, func() error {
		for _, b := range encoded {
			f, _, err := wire.DecodeFrame(b)
			if err != nil {
				return err
			}
			if _, err := wire.DecodePublish(f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if m["wire.encode_data_ns_per_tuple"], err = replay(rec, "wire.encode_data", outTuples, func() error {
		for _, d := range data {
			buf = wire.AppendFrame(buf[:0], d.Frame())
		}
		return nil
	}); err != nil {
		return err
	}
	m["wire.decode_data_ns_per_tuple"], err = replay(rec, "wire.decode_data", outTuples, func() error {
		for _, b := range encodedData {
			f, _, err := wire.DecodeFrame(b)
			if err != nil {
				return err
			}
			if _, err := wire.DecodeData(f); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// walPass is one pass of the WAL replay's append side.
type walPass struct {
	dir       string
	journal   time.Duration // inside Log.Journal, all epochs
	commitsUs []float64     // each Log.Commit
	counters  map[string]int64
}

// walAppend journals and commits the first limit timed epochs into a
// fresh log under dir, closes it, and leaves its directory in place.
func walAppend(w *workload, outputs map[int64][]stream.Tuple, dir string, noSync bool, limit int, rec *recorder) (p walPass, err error) {
	if p.dir, err = os.MkdirTemp(dir, tempPrefix+"walreplay-"); err != nil {
		return p, err
	}
	reg := telemetry.NewRegistry()
	l, _, err := wal.Open(wal.Options{Dir: p.dir, Source: tenantName, NoSync: noSync, Registry: reg})
	if err != nil {
		return p, err
	}
	for _, ep := range w.Epochs[warmEpochs : warmEpochs+limit] {
		j0 := time.Now()
		for _, c := range ep.Frames {
			for _, f := range c {
				if err := l.Journal(f.Receptor, f.Tuples, nil); err != nil {
					l.Crash()
					return p, err
				}
			}
		}
		j1 := time.Now()
		err := l.Commit(ep.Now, map[string][]stream.Tuple{w.Stream: outputs[ep.Now.UnixNano()]})
		c1 := time.Now()
		if err != nil {
			l.Crash()
			return p, err
		}
		p.journal += j1.Sub(j0)
		p.commitsUs = append(p.commitsUs, float64(c1.Sub(j1))/1e3)
		rec.add(0, "wal.journal", laneMain, ep.Now.UnixNano(), j0, j1)
		rec.add(0, "wal.commit", laneMain, ep.Now.UnixNano(), j1, c1)
	}
	p.counters = reg.Snapshot().Counters
	return p, l.Close()
}

// walReplay journals and commits the timed epochs into a log of its
// own, scans it back as recovery does, and times a few commits with the
// device sync on.
func walReplay(w *workload, data []wire.Data, dir string, rec *recorder, m map[string]float64) error {
	outputs := make(map[int64][]stream.Tuple, len(data))
	for _, d := range data {
		outputs[d.Epoch] = d.Tuples
	}
	epochs := len(w.Epochs) - warmEpochs
	tuples := w.inputTuples(warmEpochs, len(w.Epochs))

	var journalNs, commitUs []float64
	var last walPass
	for i := 0; i < replayPasses; i++ {
		os.RemoveAll(last.dir)
		var err error
		if last, err = walAppend(w, outputs, dir, true, epochs, rec); err != nil {
			os.RemoveAll(last.dir)
			return fmt.Errorf("wal replay: %w", err)
		}
		journalNs = append(journalNs, float64(last.journal)/float64(tuples))
		commitUs = append(commitUs, mean(last.commitsUs))
	}
	defer os.RemoveAll(last.dir)
	m["wal.journal_ns_per_tuple"] = quantile(journalNs, 0.5)
	m["wal.commit_us_per_epoch"] = quantile(commitUs, 0.5)
	m["wal.publish_records"] = float64(last.counters["wal_publish_records"])
	m["wal.bytes"] = float64(last.counters["wal_bytes"])

	var err error
	if m["wal.scan_ns_per_tuple"], err = replay(rec, "wal.scan", tuples, func() error {
		l, r, err := wal.Open(wal.Options{Dir: last.dir, Source: tenantName, NoSync: true})
		if err != nil {
			return err
		}
		if len(r.Epochs) != epochs {
			l.Crash()
			return fmt.Errorf("scan found %d epochs, wrote %d", len(r.Epochs), epochs)
		}
		return l.Close()
	}); err != nil {
		return err
	}

	// Sync on, informational: the device's share of a durable commit.
	synced, err := walAppend(w, outputs, dir, false, min(epochs, 4*minBeyond), rec)
	os.RemoveAll(synced.dir)
	if err != nil {
		return fmt.Errorf("wal sync replay: %w", err)
	}
	m["wal.commit_sync_us_p50"] = quantile(synced.commitsUs, 0.5)
	return nil
}

// receptorReplay pushes the timed epochs through receptor channels:
// PublishAll per frame, then one Poll per channel per epoch.
func receptorReplay(w *workload, rec *recorder, m map[string]float64) error {
	var spec server.Spec
	if err := json.Unmarshal(w.Spec, &spec); err != nil {
		return err
	}
	chans := make(map[string]*receptor.Channel, len(spec.Receptors))
	order := make([]*receptor.Channel, 0, len(spec.Receptors))
	for _, rs := range spec.Receptors {
		schema, err := stream.ParseSchemaSpec(rs.Schema)
		if err != nil {
			return err
		}
		ch := receptor.NewChannel(rs.ID, receptor.Type(rs.Type), schema)
		if spec.Quota.ChannelCap > 0 {
			ch.SetCap(spec.Quota.ChannelCap)
		}
		chans[rs.ID] = ch
		order = append(order, ch)
	}
	tuples := w.inputTuples(warmEpochs, len(w.Epochs))
	var err error
	m["receptor.publish_poll_ns_per_tuple"], err = replay(rec, "receptor.publish_poll", tuples, func() error {
		polled := 0
		for _, ep := range w.Epochs[warmEpochs:] {
			for _, c := range ep.Frames {
				for _, f := range c {
					chans[f.Receptor].PublishAll(f.Tuples)
				}
			}
			for _, ch := range order {
				polled += len(ch.Poll(ep.Now))
			}
		}
		if polled != tuples {
			return fmt.Errorf("polled %d of %d tuples", polled, tuples)
		}
		return nil
	})
	return err
}

// loopbackRTT measures the socket layer alone: one of the workload's
// publish frames written and flushed, an Ack-sized frame read back,
// over loopback TCP with the same buffered reader and writer the client
// and the server use, on as many connections at once as the workload
// has publishers — goroutines woken in turn and no esp work beyond
// framing. It is what a stop-and-wait round trip costs here before espd
// does anything.
func loopbackRTT(w *workload, rec *recorder, m map[string]float64) error {
	frames := timedFrames(w)
	probe := wire.Publish{Receptor: frames[len(frames)/2].Receptor, Seq: 1, Tuples: frames[len(frames)/2].Tuples}.Frame()
	ack := wire.Ack{Seq: 1}.Frame()
	const trips = 2000

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	// Every goroutine below makes exactly one send.
	errs := make(chan error, 2*publishers)
	rtts := make(chan []float64, publishers)
	for c := 0; c < publishers; c++ {
		go func() { // the echoing side
			conn, err := ln.Accept()
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
			for i := 0; i < trips; i++ {
				if _, err = wire.ReadFrame(br); err != nil {
					break
				}
				if err = wire.WriteFrame(bw, ack); err != nil {
					break
				}
				if err = bw.Flush(); err != nil {
					break
				}
			}
			errs <- err
		}()
		go func(lane int) { // the client side
			var mine []float64
			defer func() { rtts <- mine }()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
			for i := 0; i < trips; i++ {
				t0 := time.Now()
				if err = wire.WriteFrame(bw, probe); err != nil {
					break
				}
				if err = bw.Flush(); err != nil {
					break
				}
				if _, err = wire.ReadFrame(br); err != nil {
					break
				}
				t1 := time.Now()
				rec.add(0, "net.loopback_rtt", lane, 0, t0, t1)
				mine = append(mine, float64(t1.Sub(t0))/1e3)
			}
			errs <- err
		}(c)
	}
	var all []float64
	var first error
	for i := 0; i < 2*publishers; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
			ln.Close() // release an echo side still waiting in Accept
		}
	}
	for c := 0; c < publishers; c++ {
		all = append(all, <-rtts...)
	}
	if first != nil {
		return fmt.Errorf("loopback echo: %w", first)
	}
	m["net.loopback_rtt_us_p50"] = quantile(all, 0.5)
	return nil
}

// paperDeployments times the paper's three deployments in process
// (shelf §4, lab §5, home §6) — the pipeline's cost on the shapes the
// paper evaluated, independent of the serving workloads.
func paperDeployments(m map[string]float64) error {
	res, err := exp.RunObsBaseline(exp.ObsConfig{Repeats: 1})
	if err != nil {
		return err
	}
	for _, d := range res.Deployments {
		m["core.step_us."+d.Name] = float64(d.NsPerEpoch) / 1e3
	}
	return nil
}
