# CI entry points for the vmprov reproduction. `make ci` is the gate a PR
# must pass: static checks, the full test suite with the race detector,
# the kernel fuzz targets in short mode, end-to-end CLI smoke runs, every
# example program, and the benchmark harness's own tests. Throughput is
# measured by `bash bench/run.sh` (see bench/README.md), not by CI.

GO        ?= go
FUZZTIME  ?= 10s
SPECTMP   ?= /tmp/vmprov_spec_smoke.json
TRACETMP  ?= /tmp/vmprov_trace_smoke.jsonl

.PHONY: ci fmt vet lint build test race sweep-race fault-smoke chaos-smoke fuzz sweep-smoke spec-roundtrip ff-smoke snapshot-smoke cli-golden examples-smoke bench-test bench golden

ci: fmt vet lint build race sweep-race fault-smoke chaos-smoke fuzz sweep-smoke spec-roundtrip ff-smoke snapshot-smoke cli-golden examples-smoke bench-test

# gofmt cleanliness gate: fail (and list the files) if any tracked Go
# source is not gofmt-formatted.
fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# vmprovlint v2: the project's determinism and correctness multichecker
# — the five v1 per-package passes (simclock, seededrand, maporder,
# errcmp, hotclosure), the five v2 whole-program passes (snapshotfield,
# splitkey, specstrict, registry, deadcode), and the lite
# nilness/shadow stock passes (lock copies are go vet's). One gate over
# the whole tree; `make ci` fails on any finding not suppressed in source
# with `//vmprov:allow <analyzer> -- <reason>` (a suppression with no
# live finding under it fails the stale-allow audit in the lint tests).
lint:
	$(GO) run ./cmd/vmprovlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sweep engine's concurrency properties under the race detector:
# pooled workers against fresh runs at several worker counts, result
# placement, the serialized completion hook, and a panel's replication
# and figure rows on one worker and on four (TestRunParallelMatchesSerial).
# The TestSweepFault* cases put a fault-enabled panel through the same
# concurrent machinery.
sweep-race:
	$(GO) test -race -count=1 ./internal/experiment -run 'TestSweep|TestRunContext|TestRunParallel'

# Fault-injection smoke: a short fault panel sweeps under the race
# detector (TestSweepFault*), the self-healing provisioner's fault
# tests and the committed-floor invariant the MPC search prunes on
# (TestCommittedFloor*) run under -race, and the committed fault panel
# runs end to end through -spec.
fault-smoke:
	$(GO) test -race -count=1 ./internal/experiment -run 'TestSweepFault'
	$(GO) test -race -count=1 ./internal/provision -run 'TestRetry|TestCrash|TestBootFailure|TestStaleBoot|TestTransientRelease|TestGracefulDegradation|TestReactivated|TestCeiling|TestCommittedFloor'
	$(GO) run ./cmd/vmprovsim -spec examples/specs/web_fault_panel.json > /dev/null

# Chaos smoke: the correlated failure-domain suite — breaker, shed, and
# backoff unit tests plus the chaos panel's determinism, invariant, and
# mid-outage snapshot properties — under the race detector, then a short
# -chaos run whose per-replication invariant checks gate the process.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/provision -run 'TestBreaker|TestShed|TestAllZonesOpen|TestRetryBackoff|TestBreakerAndShedPolicyValidate'
	$(GO) test -race -count=1 ./internal/experiment -run 'TestChaos|TestSweepChaos'
	$(GO) run ./cmd/vmprovsim -chaos -scale 0.02 -reps 1 -horizon 3600 > /dev/null

# Short fuzzing of the kernel's heap/arena against the reference
# scheduler, the fast Weibull Pow against math.Pow (bit for bit), the
# fault-schedule determinism fuzzer, and the strict v2 trace decoder
# (decode/re-encode round-trip). The seed corpora also run on every
# plain `go test`.
fuzz:
	$(GO) test ./internal/sim -run FuzzSimHeap -fuzz FuzzSimHeap -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run FuzzPow -fuzz FuzzPow -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run FuzzFaultSchedule -fuzz FuzzFaultSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run FuzzChaosSchedule -fuzz FuzzChaosSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run FuzzSnapshotRestore -fuzz FuzzSnapshotRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run FuzzTraceV2Decode -fuzz FuzzTraceV2Decode -fuzztime $(FUZZTIME)

# The declarative-spec test suite: spec/panel/policy-registry
# compilation, the paper panel's row order, and a JSON round-tripped
# panel running to the same rows as the panel compiled directly
# (TestSpecPanelMatchesRunAll).
sweep-smoke:
	$(GO) test -count=1 ./internal/experiment -run 'TestSpec|TestPanel|TestPaperPanel|TestResolve|TestGoldenSpec|TestScenarioSpec'

# Spec round-trip gate: the committed golden panel files must equal a
# fresh -dumpspec, reload, and compile (TestGoldenSpecFiles), the
# committed golden trace must equal a fresh -record (TestGoldenTraceFile),
# a dumped panel must run end to end through -spec, and the committed
# multi-client panel must run with its per-client breakdown.
spec-roundtrip:
	$(GO) test -count=1 ./internal/experiment -run 'TestGoldenSpecFiles|TestGoldenTraceFile|TestPaperPanelRoundTrip'
	$(GO) run ./cmd/vmprovsim -dumpspec scientific -scale 0.2 -reps 1 > $(SPECTMP)
	$(GO) run ./cmd/vmprovsim -spec $(SPECTMP) > /dev/null
	$(GO) run ./cmd/vmprovsim -spec examples/specs/web_multiclient_panel.json > /dev/null

# Hybrid fast-forward smoke: the hybrid engine's unit and equivalence
# tests — every policy of the hybrid panel within the hybrid contract
# (metrics.CloseTo), determinism across worker counts, bit-exact
# -mode=exact, the pinned hybrid golden, a traced hybrid run equal to
# the untraced one — then one traced hybrid CLI replication.
ff-smoke:
	$(GO) test -count=1 ./internal/fluid ./internal/experiment -run 'TestEngine|TestHybrid|TestMode'
	$(GO) run ./cmd/vmprovsim -scenario web -scale 0.05 -horizon 3600 -mode hybrid -trace $(TRACETMP)

# Snapshot/restore smoke: the bit-identity property suite (exact +
# hybrid + fault-enabled + MPC + a window analyzer stopping its ticker
# mid-run, nested stacks, World forks, worker counts 1/4/8 with
# pooled contexts) and the FuzzSnapshotRestore seeds under the race
# detector, including TestMPCGolden (the MPC controller's decisions,
# pinned bit for bit) and TestMPCBeatsWorstBaseline (the MPC policy must
# not lose to every baseline on its own objective); then the per-layer
# rewind tests of the kernel (tickers, zero snapshot, handles from a
# discarded future), the collector (zero snapshot) and the federation,
# and the restore checks of every workload.Rewindable: each source kind,
# a multi-client source snapshotted into a pooled store sized for fewer
# clients, the observing analyzers, each forecaster (TestRewind*,
# TestForecasterRewind) and the Adaptive controller's re-evaluation λ̂
# (TestSnapshotAdaptiveReevaluate, above).
snapshot-smoke:
	$(GO) test -race -count=1 ./internal/experiment -run 'TestSnapshot|TestMPC|FuzzSnapshotRestore'
	$(GO) test -race -count=1 ./internal/sim -run 'TestTicker|TestResetMatchesNew|TestStaleHandleAcrossRestore'
	$(GO) test -race -count=1 ./internal/metrics -run 'ZeroSnapshot'
	$(GO) test -race -count=1 ./internal/cloud -run 'TestFederation'
	$(GO) test -race -count=1 ./internal/workload -run 'TestRewind|TestScientificZeroGapSnapshot|TestMultiSourceSnapshotResizesPooledStore'
	$(GO) test -race -count=1 ./internal/forecast -run 'TestForecasterRewind'

# CLI golden: nine vmprovsim invocations (-all tables and CSV, the
# per-replication rows of single-policy mode, hybrid mode, -series, and
# the exit 2 of an unknown policy and of a static fleet above the VM
# ceiling) must reproduce the stdout, stderr and exit code recorded under
# cmd/vmprovsim/testdata/cli/ byte for byte.
cli-golden:
	@set -e; dir="$$(mktemp -d)"; \
	$(GO) build -o "$$dir/vmprovsim" ./cmd/vmprovsim; \
	bash cmd/vmprovsim/testdata/cli.sh "$$dir/vmprovsim" "$$dir/out"; \
	status=0; diff -r cmd/vmprovsim/testdata/cli "$$dir/out" || status=$$?; \
	rm -rf "$$dir"; exit $$status

# Examples golden: every example program runs at its default flags (≈6
# s, most of it webautoscale) and must reproduce the stdout and exit code
# recorded under examples/testdata/golden/ byte for byte.
examples-smoke:
	@set -e; dir="$$(mktemp -d)"; \
	$(GO) build -o "$$dir/bin/" ./examples/...; \
	bash examples/testdata/examples.sh "$$dir/bin" "$$dir/out"; \
	status=0; diff -r examples/testdata/golden "$$dir/out" || status=$$?; \
	rm -rf "$$dir"; exit $$status

# The benchmark harness is its own module (bench/go.mod), so the root
# `go test ./...` never builds it: build and test it here, so an internal
# API change that breaks the harness fails CI rather than the next
# benchmark run.
bench-test:
	cd bench && $(GO) test ./...

# The root package's Go benchmarks with allocation stats (slow; not part
# of ci). The end-to-end benchmark is `bash bench/run.sh`.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# Re-pin the kernel golden file after a DELIBERATE semantic change to
# event ordering or RNG stream layout. Never run to silence a failure.
golden:
	$(GO) test ./internal/experiment -run TestKernelGolden -update-kernel-golden
