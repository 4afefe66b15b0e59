package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"esp/internal/exp"
	"esp/internal/sim"
	"esp/internal/stream"
	"esp/internal/wire"
)

// publishers is the number of publisher connections. Fixed, not derived
// from the machine, so results compare across machines.
const publishers = 2

// warmEpochs are replayed before the timed region: they fill windows
// and caches, are fingerprinted, and are not timed.
const warmEpochs = 20

// pubFrame is one Client.Publish call: one receptor's readings for one
// epoch.
type pubFrame struct {
	Receptor string
	Tuples   []stream.Tuple
}

// epochInput is one epoch: each connection's frames in send order, then
// the boundary to advance to.
type epochInput struct {
	Now    time.Time
	Frames [publishers][]pubFrame
}

// workload is a fully generated input: the tenant spec and every epoch's
// frames. The same (name, seed, epochs) always generates the same bytes.
type workload struct {
	Spec   []byte
	Stream string // the tenant's one output stream
	Epochs []epochInput
}

// workloadDef names a workload and fixes its size.
type workloadDef struct {
	Name string
	Why  string
	// TimedEpochs is the number of timed epochs in one repeat at the
	// reference run length (refSeconds); other run lengths scale it.
	TimedEpochs int
	gen         func(seed int64, epochs int) (*workload, error)
}

// refSeconds is the run length TimedEpochs is sized for: repeats ×
// TimedEpochs epochs take about this long on the machine the benchmark
// was defined on (2 vCPU).
const refSeconds = 20

// workloads is the catalogue, in report order. BENCHMARK.json repeats
// the names and rationales; TestCatalogueMatchesBenchmarkJSON keeps the
// two from drifting.
var workloads = []workloadDef{
	{
		Name:        "motes-1k",
		Why:         "frame-bound: 1000 lossy motes, ~900 one-tuple publish frames per epoch, so frame loop, socket round trips and per-record WAL cost dominate",
		TimedEpochs: 300,
		gen:         genMotes,
	},
	{
		Name:        "wide-batch",
		Why:         "payload-bound: 48 receptors x 64 samples, 49 large frames and ~3k tuples per epoch, so tuple encode/decode, journal bytes and window kernels dominate",
		TimedEpochs: 1500,
		gen:         genWide,
	},
	{
		Name:        "shelf-rfid",
		Why:         "pipeline-bound: the paper's RFID shelf at 8 readers, 9 frames per epoch, so Point/Smooth/Arbitrate group-by windows dominate and wire and WAL are small",
		TimedEpochs: 2000,
		gen:         genShelf,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// deal sorts an epoch's publishes by receptor ID and deals them to the
// connections by each receptor's index in ids (the sorted list of every
// receptor of the deployment), so a receptor always uses the same
// connection and the per-connection load is the same on every run.
func deal(ids []string, pubs map[string][]stream.Tuple, now time.Time) epochInput {
	ep := epochInput{Now: now}
	for i, id := range ids {
		if ts := pubs[id]; len(ts) > 0 {
			c := i % publishers
			ep.Frames[c] = append(ep.Frames[c], pubFrame{Receptor: id, Tuples: ts})
		}
	}
	return ep
}

// genMotes is ROADMAP's headline workload, esploadgen's deployment:
// 1000 motes in granules of 8 behind radios that deliver 0.9 of their
// readings, every 10th mote on a drop/duplicate/stuck fault schedule.
func genMotes(seed int64, epochs int) (*workload, error) {
	o := exp.DefaultLoadgenOptions()
	o.Epochs = epochs
	o.Seed = seed
	steps, _ := exp.LoadgenWorkload(o)
	ids := make([]string, o.Motes)
	for i := range ids {
		ids[i] = exp.MoteID(i)
	}
	sort.Strings(ids)
	w := &workload{Spec: exp.LoadgenSpec(o), Stream: "mote"}
	for _, st := range steps {
		w.Epochs = append(w.Epochs, deal(ids, st.Pubs, st.Now))
	}
	return w, nil
}

// Wide deployment shape (the `wide` deployment of exp/wal.go, whose
// builders are unexported): 48 receptors in 12 granules, SmoothAvg over
// four epochs, MergeAvg per epoch, 64 samples per receptor per epoch.
const (
	wideReceptors = 48
	wideGroupSize = 4
	wideSamples   = 64
	wideEpoch     = time.Second
)

func wideID(i int) string { return fmt.Sprintf("wide%03d", i) }

func genWide(seed int64, epochs int) (*workload, error) {
	groups := map[string]any{}
	recs := make([]map[string]any, 0, wideReceptors)
	ids := make([]string, wideReceptors)
	for i := 0; i < wideReceptors; i++ {
		ids[i] = wideID(i)
		recs = append(recs, map[string]any{"id": ids[i], "type": "mote", "schema": "temp:float"})
		g := fmt.Sprintf("granule%02d", i/wideGroupSize)
		if groups[g] == nil {
			groups[g] = map[string]any{"type": "mote", "members": []string{}}
		}
		m := groups[g].(map[string]any)
		m["members"] = append(m["members"].([]string), ids[i])
	}
	spec, err := json.Marshal(map[string]any{
		"deployment": map[string]any{
			"epoch":  wideEpoch.String(),
			"groups": groups,
			"pipelines": map[string]any{"mote": map[string]any{
				"smooth": "SELECT avg(temp) AS temp FROM smooth_input [Range By '4 sec']",
				"merge":  "SELECT avg(temp) AS temp FROM merge_input [Range By '1 sec']",
			}},
		},
		"receptors": recs,
		"quota":     map[string]any{"channel_cap": 4 * wideSamples},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	phase := make([]float64, wideReceptors)
	for i := range phase {
		phase[i] = rng.Float64() * 2 * math.Pi
	}
	start := time.Unix(0, 0).UTC()
	w := &workload{Spec: spec, Stream: "mote"}
	for e := 0; e < epochs; e++ {
		epochStart := start.Add(time.Duration(e) * wideEpoch)
		pubs := make(map[string][]stream.Tuple, wideReceptors)
		for r := 0; r < wideReceptors; r++ {
			batch := make([]stream.Tuple, wideSamples)
			for s := range batch {
				ts := epochStart.Add(time.Duration(s+1) * wideEpoch / (wideSamples + 1))
				v := 20 + 5*math.Sin(float64(e*wideSamples+s)/37+phase[r]) + 0.3*rng.NormFloat64()
				batch[s] = stream.NewTuple(ts, stream.Float(v))
			}
			pubs[ids[r]] = batch
		}
		w.Epochs = append(w.Epochs, deal(ids, pubs, epochStart.Add(wideEpoch)))
	}
	return w, nil
}

// Shelf deployment shape: the paper's §4 RFID shelf scaled from 2 to 8
// shelves/readers, each reader polled at 5 Hz and publishing once per
// 1 s epoch; Point drops bad checksums, Smooth counts reads per tag
// over 5 s, Arbitrate attributes each tag to the shelf that read it
// most (the spec of wal/waltest's shelf deployment, widened).
const (
	shelfReaders = 8
	shelfEpoch   = time.Second
	shelfPolls   = 5
)

func genShelf(seed int64, epochs int) (*workload, error) {
	cfg := sim.DefaultShelfConfig()
	cfg.Seed = seed
	cfg.Shelves = shelfReaders
	cfg.AntennaEff = make([]float64, shelfReaders)
	cfg.CrossReloc = make([]float64, shelfReaders)
	for i := range cfg.AntennaEff {
		// Alternate the paper's two antenna ports across the readers.
		cfg.AntennaEff[i] = []float64{1.0, 0.62}[i%2]
		cfg.CrossReloc[i] = []float64{0.06, 0.005}[i%2]
	}
	sc, err := sim.NewShelfScenario(cfg)
	if err != nil {
		return nil, err
	}
	groups := map[string]any{}
	recs := make([]map[string]any, 0, shelfReaders)
	ids := make([]string, shelfReaders)
	for i, r := range sc.Readers {
		ids[i] = r.ID()
		recs = append(recs, map[string]any{"id": r.ID(), "type": "rfid", "schema": "tag_id:string,checksum_ok:bool"})
		groups[fmt.Sprintf("shelf%d", i)] = map[string]any{"type": "rfid", "members": []string{r.ID()}}
	}
	spec, err := json.Marshal(map[string]any{
		"deployment": map[string]any{
			"epoch":  shelfEpoch.String(),
			"groups": groups,
			"pipelines": map[string]any{"rfid": map[string]any{
				"point":     "SELECT tag_id FROM point_input WHERE checksum_ok = TRUE",
				"smooth":    "SELECT tag_id, count(*) AS n FROM smooth_input [Range By '5 sec'] GROUP BY tag_id",
				"arbitrate": "SELECT spatial_granule, tag_id FROM arb ai1 [Range By 'NOW'] GROUP BY spatial_granule, tag_id HAVING sum(n) >= ALL(SELECT sum(n) FROM arb ai2 [Range By 'NOW'] WHERE ai1.tag_id = ai2.tag_id GROUP BY spatial_granule)",
			}},
		},
		"receptors": recs,
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(ids)
	start := time.Unix(0, 0).UTC()
	w := &workload{Spec: spec, Stream: "rfid"}
	for e := 0; e < epochs; e++ {
		epochStart := start.Add(time.Duration(e) * shelfEpoch)
		pubs := make(map[string][]stream.Tuple, shelfReaders)
		for k := 0; k < shelfPolls; k++ {
			at := epochStart.Add(shelfEpoch/(2*shelfPolls) + time.Duration(k)*shelfEpoch/shelfPolls)
			for _, r := range sc.Readers {
				pubs[r.ID()] = append(pubs[r.ID()], r.Poll(at)...)
			}
		}
		w.Epochs = append(w.Epochs, deal(ids, pubs, epochStart.Add(shelfEpoch)))
	}
	return w, nil
}

// inputTuples counts the tuples in epochs [from, to).
func (w *workload) inputTuples(from, to int) int {
	n := 0
	for _, ep := range w.Epochs[from:to] {
		for _, fs := range ep.Frames {
			for _, f := range fs {
				n += len(f.Tuples)
			}
		}
	}
	return n
}

// inputFrames counts the publish frames in epochs [from, to).
func (w *workload) inputFrames(from, to int) int {
	n := 0
	for _, ep := range w.Epochs[from:to] {
		for _, fs := range ep.Frames {
			n += len(fs)
		}
	}
	return n
}

// encode renders the whole workload as the bytes the publishers put on
// the wire (spec, then every publish frame and advance in send order) —
// what the determinism test compares.
func (w *workload) encode() []byte {
	b := append([]byte(nil), w.Spec...)
	for _, ep := range w.Epochs {
		for _, fs := range ep.Frames {
			for _, f := range fs {
				b = wire.AppendFrame(b, wire.Publish{Receptor: f.Receptor, Tuples: f.Tuples}.Frame())
			}
		}
		b = wire.AppendFrame(b, wire.Advance{Now: ep.Now.UnixNano()}.Frame())
	}
	return b
}
