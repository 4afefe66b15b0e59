// Command espd is the ESP serving daemon: it hosts many independent
// cleaning pipelines (one per tenant) behind a length-prefixed binary
// wire protocol on TCP.
//
// Clients create or alter pipelines by submitting a spec — the same
// deployment JSON espclean accepts (CQL stage queries plus granule
// groups) wrapped with receptor declarations and quotas — then publish
// readings, advance the epoch clock, and subscribe to cleaned output
// streams. See internal/server for the spec and protocol.
//
//	espd -addr :5599 -metrics :9131
//	espd -spec acme=deploy.json               # preload a tenant at boot
//	espd -wal-dir /var/lib/espd/wal           # durable: journal + recovery
//	espd -trace-sample 64 -slow-epoch 50ms    # trace 1/64 epochs, flag slow ones
//	espd -log-format json -log-level debug    # structured logs for a collector
//
// With -metrics the endpoint also serves the ops surfaces: /healthz
// (liveness + WAL writability), /statusz (per-tenant table; add
// ?format=json for machines), /traces (recent spans when -trace-sample
// is on), and /metrics.json (the poll target of cmd/esptop).
//
// With -wal-dir every tenant journals its publishes and epoch barriers
// to <wal-dir>/<tenant>/ (fsync at each committed epoch), archives its
// cleaned output beside the journal, and a restart replays each
// journal's committed history through a fresh pipeline before serving
// — exactly-once resume from the last committed epoch. Readings
// published after the last committed epoch are discarded at recovery
// (they were never acked as durable); clients re-send them.
//
// On SIGINT/SIGTERM espd drains gracefully: in-flight epochs are
// committed and flushed, subscribers receive a Drain frame carrying the
// final committed epoch, and the telemetry endpoint stays up until
// everything else is down. A drained journal's catalog is stamped
// completed, so the next boot skips replay.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"esp/internal/server"
)

func main() {
	addr := flag.String("addr", ":5599", "wire protocol listen address")
	metrics := flag.String("metrics", "", "telemetry exposition address (empty = disabled)")
	maxTenants := flag.Int("max-tenants", server.DefaultMaxTenants, "maximum hosted pipelines")
	walDir := flag.String("wal-dir", "", "write-ahead log root: journal publishes, fsync epoch barriers, recover tenants at boot (empty = in-memory only)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "kill control connections silent for this long (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "disconnect clients whose sockets stop draining for this long (0 = never)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	traceSample := flag.Int("trace-sample", 0, "trace one in N advance-driven epochs and every client-traced frame (0 = tracing off)")
	traceSeed := flag.Int64("trace-seed", 0, "trace-ID minting seed (deterministic per sample+seed)")
	slowEpoch := flag.Duration("slow-epoch", 0, "log a slow-epoch warning with an exemplar trace when a commit exceeds this (0 = never)")
	var preloads []string
	flag.Func("spec", "preload a tenant at boot as name=specfile (repeatable)", func(v string) error {
		preloads = append(preloads, v)
		return nil
	})
	flag.Parse()

	log, err := buildLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "espd:", err)
		os.Exit(2)
	}
	logBuildInfo(log)
	s, err := server.Listen(server.Config{
		Addr:         *addr,
		MetricsAddr:  *metrics,
		MaxTenants:   *maxTenants,
		WALDir:       *walDir,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		Logger:       log,
		TraceSampleN: *traceSample,
		TraceSeed:    *traceSeed,
		SlowEpoch:    *slowEpoch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "espd:", err)
		os.Exit(1)
	}
	reports, err := s.Engine().Recover()
	if err != nil {
		// Tenants that recovered cleanly keep running; the failures are
		// fatal so an operator never silently serves with lost history.
		fmt.Fprintln(os.Stderr, "espd: recovery:", err)
		os.Exit(1)
	}
	for _, rep := range reports {
		log.Info("tenant recovered", "tenant", rep.Tenant,
			"epochs", rep.Epochs, "last", rep.Last.Format(time.RFC3339Nano),
			"discarded_publishes", rep.TailPublishes, "discarded_bytes", rep.Discarded,
			"corruption", rep.Corruption)
	}
	for _, pl := range preloads {
		name, file, ok := strings.Cut(pl, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "espd: -spec %q: want name=specfile\n", pl)
			os.Exit(2)
		}
		spec, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "espd:", err)
			os.Exit(1)
		}
		if _, ok := s.Engine().Tenant(name); ok {
			// Creating over a recovered tenant would reset its journal;
			// a boot-time preload must never cost recovered history.
			log.Info("tenant already recovered; skipping preload", "tenant", name, "spec", file)
			continue
		}
		if _, err := s.Engine().Create(name, spec); err != nil {
			fmt.Fprintf(os.Stderr, "espd: preload %q: %v\n", name, err)
			os.Exit(1)
		}
		log.Info("tenant preloaded", "tenant", name, "spec", file)
	}
	log.Info("espd listening", "addr", s.Addr(), "metrics", s.MetricsURL())

	errc := make(chan error, 1)
	go func() { errc <- s.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Info("draining", "signal", got.String(), "timeout", drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "espd: drain:", err)
			os.Exit(1)
		}
		log.Info("drained")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "espd:", err)
		os.Exit(1)
	}
}
