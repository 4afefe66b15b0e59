package exp

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"esp/internal/netchaos"
	"esp/internal/server"
	"esp/internal/wire"
)

// NetChaosConfig parameterises the network-chaos harness: the loadgen
// workload driven through a fault-injecting TCP proxy by resilient
// session clients, with a link fault at every epoch boundary, against
// a fault-free reference leg.
type NetChaosConfig struct {
	// Load shapes the workload.
	Load LoadgenOptions
	// Publishers is the resilient publisher connection count.
	Publishers int
	// Seed drives the fault schedule and the clients' backoff jitter.
	Seed int64
	// CallTimeout / ReadTimeout are the clients' per-call and
	// subscriber-wait bounds; short values make stalled links fail fast.
	CallTimeout time.Duration
	ReadTimeout time.Duration
	// IdleTimeout / WriteTimeout configure both legs' server connection
	// deadlines.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration
	// StallFor / PartitionFor is how long stall and partition faults
	// last before the harness lifts them.
	StallFor     time.Duration
	PartitionFor time.Duration
}

// DefaultNetChaosConfig is the canonical 1000-mote workload with a
// fault at every one of its 30 epoch boundaries.
func DefaultNetChaosConfig() NetChaosConfig {
	return NetChaosConfig{
		Load:         DefaultLoadgenOptions(),
		Publishers:   8,
		Seed:         7,
		CallTimeout:  500 * time.Millisecond,
		ReadTimeout:  2 * time.Second,
		IdleTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Second,
		StallFor:     250 * time.Millisecond,
		PartitionFor: 150 * time.Millisecond,
	}
}

// NetChaosResult is what the chaos leg observed. RunNetChaos returns it
// only when every gate held: the chaos output's fingerprint equals the
// reference leg's (no committed epoch lost, nothing delivered twice),
// every published tuple was applied exactly once, and the fault
// counters prove the faults happened.
type NetChaosResult struct {
	// Faults counts the injected faults by kind.
	Faults map[string]int
	// LinksKilled is how many proxied links a fault tore down;
	// Reconnects sums the clients' reconnects.
	LinksKilled int64
	Reconnects  int64
	// Server-side session accounting (the tenant's serve_* counters).
	ServerReconn int64
	Resumes      int64
	DedupDrops   int64
	IdleKills    int64

	TuplesPublished  int
	TuplesApplied    int64
	EpochsCommitted  int64
	FingerprintClean uint64
	FingerprintChaos uint64
}

// RunNetChaos runs the fault-free reference leg and the chaos leg
// through the proxy, plus the deterministic dedup and idle-kill
// probes, and fails hard on any gate violation.
func RunNetChaos(cfg NetChaosConfig) (*NetChaosResult, error) {
	spec := LoadgenSpec(cfg.Load)
	steps, published := LoadgenWorkload(cfg.Load)

	ref, err := runDirectLeg(cfg, spec, steps)
	if err != nil {
		return nil, fmt.Errorf("netchaos: reference leg: %w", err)
	}
	res, err := runChaosLeg(cfg, spec, steps, published)
	if err != nil {
		return res, err
	}
	idleKills, err := probeIdleKill()
	if err != nil {
		return res, err
	}
	res.IdleKills += idleKills
	res.FingerprintClean = ref.Sum()
	if res.FingerprintChaos != res.FingerprintClean {
		return res, fmt.Errorf("netchaos: chaos output %016x diverged from fault-free %016x",
			res.FingerprintChaos, res.FingerprintClean)
	}
	return res, nil
}

// listenServer starts the server both legs drive: journalling to a
// fresh WAL directory, with the configured connection deadlines. stop
// shuts it down and removes the directory.
func listenServer(cfg NetChaosConfig) (s *server.Server, stop func(), err error) {
	walDir, err := os.MkdirTemp("", "netchaos-wal-*")
	if err != nil {
		return nil, nil, err
	}
	s, err = server.Listen(server.Config{
		Addr:         "127.0.0.1:0",
		WALDir:       walDir,
		IdleTimeout:  cfg.IdleTimeout,
		WriteTimeout: cfg.WriteTimeout,
	})
	if err != nil {
		os.RemoveAll(walDir)
		return nil, nil, err
	}
	go s.Serve() //nolint:errcheck
	return s, func() { shutdown(s); os.RemoveAll(walDir) }, nil
}

// runDirectLeg drives the workload straight at the chaos leg's server
// configuration (no proxy, no faults) with plain clients: the reference
// fingerprint.
func runDirectLeg(cfg NetChaosConfig, spec []byte, steps []Step) (*server.Fingerprint, error) {
	s, stop, err := listenServer(cfg)
	if err != nil {
		return nil, err
	}
	defer stop()

	ctl, err := server.Dial(s.Addr())
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	if err := ctl.Create("netchaos", spec); err != nil {
		return nil, err
	}
	subc, err := server.Dial(s.Addr())
	if err != nil {
		return nil, err
	}
	defer subc.Close()
	if err := subc.Subscribe("netchaos", "mote"); err != nil {
		return nil, err
	}
	fp := server.NewFingerprint()
	subErr := collect(fp, steps, func() (wire.Data, bool, error) {
		d, _, done, err := subc.Next()
		return d, done, err
	})

	pubs := make([]*server.Client, cfg.Publishers)
	for i := range pubs {
		c, err := server.Dial(s.Addr())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if err := c.Hello("netchaos", "pub"); err != nil {
			return nil, err
		}
		pubs[i] = c
	}

	err = drive(steps, cfg.Publishers,
		func(now time.Time) error { return ctl.Advance(now) },
		func(w int, rec string, st Step) error {
			_, err := pubs[w].Publish(rec, st.Pubs[rec])
			return err
		}, nil)
	if err != nil {
		return nil, err
	}
	if err := <-subErr; err != nil {
		return nil, err
	}
	return fp, nil
}

// collect consumes a subscription until the workload's final epoch is
// delivered, folding every frame into the fingerprint. next is the
// subscription's read call (the plain or the resilient client's).
func collect(fp *server.Fingerprint, steps []Step, next func() (wire.Data, bool, error)) <-chan error {
	final := steps[len(steps)-1].Now.UnixNano()
	done := make(chan error, 1)
	go func() {
		for {
			d, eos, err := next()
			if err != nil {
				done <- err
				return
			}
			if eos {
				done <- nil
				return
			}
			fp.Add(d)
			if d.Epoch >= final {
				done <- nil
				return
			}
		}
	}()
	return done
}

// drive replays the workload: each step's publishes fan out across
// `workers` publisher slots (receptor i goes to slot i mod workers — a
// stable partition, so retried runs replay identically), then the
// boundary is advanced. afterBoundary, when non-nil, runs after each
// advance (the fault-injection hook).
func drive(steps []Step, workers int, advance func(time.Time) error,
	publish func(w int, rec string, st Step) error, afterBoundary func(i int)) error {
	for si, st := range steps {
		recs := make([]string, 0, len(st.Pubs))
		for rec := range st.Pubs {
			recs = append(recs, rec)
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ri, rec := range recs {
					if ri%workers != w {
						continue
					}
					if err := publish(w, rec, st); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if err := advance(st.Now); err != nil {
			return err
		}
		if afterBoundary != nil {
			afterBoundary(si)
		}
	}
	return nil
}

// runChaosLeg drives the workload through the netchaos proxy with
// resilient clients, injecting one link fault at every epoch boundary,
// and verifies exactly-once delivery end to end.
func runChaosLeg(cfg NetChaosConfig, spec []byte, steps []Step, published int) (*NetChaosResult, error) {
	s, stop, err := listenServer(cfg)
	if err != nil {
		return nil, err
	}
	defer stop()

	proxy, err := netchaos.Listen(s.Addr())
	if err != nil {
		return nil, err
	}
	defer proxy.Close()

	// Create the tenant over a direct connection (control-plane setup is
	// not under test); everything after this goes through the proxy.
	ctl, err := server.Dial(s.Addr())
	if err != nil {
		return nil, err
	}
	if err := ctl.Create("netchaos", spec); err != nil {
		return nil, err
	}
	ctl.Close()

	pol := func(seed int64) server.RetryPolicy {
		return server.RetryPolicy{
			MaxAttempts: 12,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  400 * time.Millisecond,
			Seed:        seed,
			CallTimeout: cfg.CallTimeout,
			ReadTimeout: cfg.ReadTimeout,
		}
	}

	// Resilient subscriber through the proxy.
	subc, err := server.DialResilient(proxy.Addr(), "netchaos", "", pol(cfg.Seed))
	if err != nil {
		return nil, err
	}
	defer subc.Close()
	if err := subc.Subscribe("mote"); err != nil {
		return nil, err
	}
	fp := server.NewFingerprint()
	subErr := collect(fp, steps, func() (wire.Data, bool, error) {
		d, _, done, err := subc.Next()
		return d, done, err
	})

	// Resilient session publishers and the control client, all proxied.
	pubs := make([]*server.ResilientClient, cfg.Publishers)
	for i := range pubs {
		c, err := server.DialResilient(proxy.Addr(), "netchaos", fmt.Sprintf("pub-%d", i), pol(cfg.Seed+int64(i)+1))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		pubs[i] = c
	}
	clk, err := server.DialResilient(proxy.Addr(), "netchaos", "clock", pol(cfg.Seed+100))
	if err != nil {
		return nil, err
	}
	defer clk.Close()

	// The fault schedule: one seeded fault after every epoch boundary,
	// hitting the publishes and resumed subscription of the next epoch.
	rng := rand.New(rand.NewSource(cfg.Seed))
	kinds := []string{"kill", "truncate", "stall", "partition", "latency"}
	faults := make(map[string]int)
	inject := func(i int) {
		kind := kinds[rng.Intn(len(kinds))]
		faults[kind]++
		proxy.SetLatency(0) // a latency fault lasts until the next boundary
		switch kind {
		case "kill":
			proxy.KillAll()
		case "truncate":
			// A budget smaller than any frame: the tear surfaces as soon
			// as each link next carries traffic.
			proxy.TruncateAll(rng.Int63n(64))
		case "stall":
			proxy.Stall()
			time.AfterFunc(cfg.StallFor, proxy.Resume)
		case "partition":
			proxy.Partition()
			time.AfterFunc(cfg.PartitionFor, proxy.Heal)
		case "latency":
			// Degraded, not dead: every chunk crawls. Nothing should
			// reconnect — exactly-once must hold anyway.
			proxy.SetLatency(time.Duration(1+rng.Int63n(5)) * time.Millisecond)
		}
	}

	err = drive(steps, cfg.Publishers,
		func(now time.Time) error { return clk.Advance(now) },
		func(w int, rec string, st Step) error {
			_, err := pubs[w].Publish(rec, st.Pubs[rec])
			return err
		}, inject)
	if err != nil {
		return nil, fmt.Errorf("netchaos: chaos leg: %w", err)
	}

	// Lift whatever fault the last boundary injected (both calls are
	// idempotent), then wait for the subscriber to finish resuming.
	proxy.Resume()
	proxy.Heal()
	if err := <-subErr; err != nil {
		return nil, fmt.Errorf("netchaos: subscriber: %w", err)
	}

	// Deterministic dedup probe: a replayed publish must be dropped by
	// the session dedup path, not re-applied.
	if err := probeDedup(s.Addr()); err != nil {
		return nil, err
	}

	st, err := clk.Stats()
	if err != nil {
		return nil, err
	}

	clientReconnects := subc.Reconnects() + clk.Reconnects()
	for _, p := range pubs {
		clientReconnects += p.Reconnects()
	}

	res := &NetChaosResult{
		Faults:           faults,
		LinksKilled:      proxy.Stats().Killed,
		Reconnects:       clientReconnects,
		ServerReconn:     st.Reconnects,
		Resumes:          st.Resumes,
		DedupDrops:       st.DedupDrops,
		IdleKills:        st.IdleKills,
		TuplesPublished:  published,
		TuplesApplied:    st.TuplesIn,
		EpochsCommitted:  st.Epochs,
		FingerprintChaos: fp.Sum(),
	}

	// Acceptance gates beyond the fingerprint (checked by the caller).
	if st.TuplesIn != int64(published) {
		return res, fmt.Errorf("netchaos: %d tuples applied, %d published — a replay was double-applied or a publish lost",
			st.TuplesIn, published)
	}
	if want := int64(cfg.Load.Epochs); st.Epochs != want {
		return res, fmt.Errorf("netchaos: %d epochs committed, want %d", st.Epochs, want)
	}
	if res.Reconnects == 0 || res.ServerReconn == 0 {
		return res, fmt.Errorf("netchaos: no reconnects happened — the faults did not bite (client=%d server=%d)",
			res.Reconnects, res.ServerReconn)
	}
	if res.Resumes == 0 {
		return res, fmt.Errorf("netchaos: subscriber never resumed — every fault missed the push connection")
	}
	if res.DedupDrops == 0 {
		return res, fmt.Errorf("netchaos: no dedup drops — the replay probe did not reach the dedup path")
	}
	return res, nil
}

// probeDedup replays one session publish under its original seq. Both
// calls must be acked — the second dropped by session dedup, which the
// caller checks via the tenant's serve_dedup_drops counter. Empty
// tuple slices keep the probe invisible to the output fingerprint and
// the applied-tuple count.
func probeDedup(addr string) error {
	probe, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer probe.Close()
	if _, err := probe.HelloSession("netchaos", "pub", "dedup-probe", 0); err != nil {
		return fmt.Errorf("netchaos: dedup probe hello: %w", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := probe.PublishSeq(MoteID(0), 1, nil); err != nil {
			return fmt.Errorf("netchaos: dedup probe publish %d: %w", i+1, err)
		}
	}
	return nil
}

// probeIdleKill parks a tenant-bound connection against a server with a
// short idle timeout and verifies the read deadline reaps it — the
// deterministic check that conn_idle_kills counts what it claims.
func probeIdleKill() (int64, error) {
	s, err := server.Listen(server.Config{Addr: "127.0.0.1:0", IdleTimeout: 150 * time.Millisecond})
	if err != nil {
		return 0, err
	}
	go s.Serve() //nolint:errcheck
	defer shutdown(s)

	c, err := server.Dial(s.Addr())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	spec := LoadgenSpec(LoadgenOptions{Motes: 1, GroupSize: 1, Epochs: 1, Epoch: time.Second, Delivery: 1})
	if err := c.Create("probe", spec); err != nil {
		return 0, err
	}

	// Park: the bound connection sends nothing and must be idle-killed.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if t, ok := s.Engine().Tenant("probe"); ok {
			if kills := t.Stats().IdleKills; kills > 0 {
				return kills, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0, fmt.Errorf("netchaos: parked connection was not idle-killed within 5s")
}

func shutdown(s *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}
