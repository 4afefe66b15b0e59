GO ?= go

# FUZZTIME bounds each fuzz target's round: short for the smoke pass
# `make check` runs, longer via `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race diff chaos wal-smoke netchaos-smoke obsserve-smoke bench-smoke fuzz-smoke fuzz bench

## check: everything CI needs — a gofmt gate, vet, build, full tests, a
## race-detector pass over every package that starts goroutines, the
## differential oracle suite, the chaos (fault-injection) harness, the
## WAL crash-recovery smoke, the network-chaos resilient-session smoke,
## the observability smoke (tracing, ops surfaces, metrics-doc drift),
## the serving benchmark's functional pass (served output = the
## in-process oracle over live TCP), and a short fuzz round per target.
check: fmt vet build test race diff chaos wal-smoke netchaos-smoke obsserve-smoke bench-smoke fuzz-smoke

## fmt: fail when any Go file is not gofmt-formatted (lists the files).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the race detector over every package that starts goroutines or
## is read from one while another writes: the core's snapshots taken
## while a run steps, the ingest path where reused buffers cross
## goroutines (server, wire, receptor channels, the journal), the window
## and telemetry primitives, the chaos proxy, the oracle's served
## recovery runs, and the CQL layer.
race:
	$(GO) test -race ./internal/core/... ./internal/server/... ./internal/wire/... ./internal/receptor/... ./internal/wal/... \
		./internal/stream/... ./internal/telemetry/... ./internal/netchaos/... ./internal/oracle/... ./internal/cql/...

## diff: the differential correctness suite (internal/oracle) — every
## generated case executed several ways, zero divergence required.
diff:
	$(GO) test ./internal/oracle -run 'TestDifferential|TestInjectedBugCaught' -count=1

## chaos: the fault-injection harness — all three deployments under
## seeded fault schedules with the supervised poller, run twice each,
## asserting scheduled quarantine/readmission and deterministic output.
chaos:
	$(GO) test ./internal/exp -run 'TestChaos' -count=1

## wal-smoke: the torn-write/corruption battery (crash injection across
## the three example deployments) and the recovery-replay-commute
## differential, both under -race.
wal-smoke:
	$(GO) test ./internal/wal/... -race -count=1
	$(GO) test ./internal/oracle -race -run 'TestRecoveryCaseClean' -count=1

## netchaos-smoke: the resilient-session battery under -race — the
## network-chaos proxy's own tests, the session/resume/deadline server
## tests, and a scaled-down end-to-end chaos run (resilient clients
## through the fault-injecting proxy, byte-identical resumed output
## required; see internal/exp/netchaos.go).
netchaos-smoke:
	$(GO) test ./internal/netchaos -race -count=1
	$(GO) test ./internal/server -race -count=1 -run 'TestSession|TestSubscribeResume|TestIdleKill|TestSlowSubscriber|TestHalfOpen|TestResilientBackoff'
	$(GO) test ./internal/exp -race -count=1 -run 'TestNetChaosSmoke'

## obsserve-smoke: the observability battery under -race — the
## telemetry registry/tracer conformance tests, the end-to-end trace and
## ops-surface tests, the metrics-doc drift gate, and a scaled-down
## served run per tracing mode (allocation-free disabled path,
## fingerprint identity across tracing modes, one trace ID end to end;
## see internal/exp/obsserve.go).
obsserve-smoke:
	$(GO) test ./internal/telemetry -race -count=1
	$(GO) test ./internal/server -race -count=1 -run 'TestTrace|TestHealthz|TestStatusz|TestMetricsDocDrift|TestFamilyOf'
	$(GO) test ./internal/exp -race -count=1 -run 'TestObsServeSmoke'
	$(GO) test ./cmd/esptop ./cmd/espd -count=1

## bench-smoke: the serving benchmark (bench/README.md) at 1/20 of its
## epochs — all three workloads over live TCP with the WAL on, crashed
## and recovered; exits non-zero when any fingerprint gate fails (served
## = oracle, recovered Last() = final epoch, archive from genesis =
## oracle). A functional check, not a measurement.
bench-smoke:
	$(GO) run ./bench -smoke

## fuzz-smoke: one short coverage-guided round per fuzz target, seeded
## from the committed corpora under testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/cql -run '^$$' -fuzz FuzzLexer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cql -run '^$$' -fuzz FuzzParser -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz FuzzCompileExpr -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz FuzzWindowAlgebra -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzSegment -fuzztime $(FUZZTIME)
	$(GO) test ./internal/receptor -run '^$$' -fuzz FuzzChannel -fuzztime $(FUZZTIME)

## fuzz: longer fuzz rounds (override FUZZTIME, e.g. make fuzz FUZZTIME=10m).
fuzz:
	$(MAKE) fuzz-smoke FUZZTIME=$(if $(filter 10s,$(FUZZTIME)),2m,$(FUZZTIME))

## bench: every testing.B microbenchmark in the module (the serving
## benchmark is `go run ./bench`, see bench/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...
