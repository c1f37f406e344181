# CI entry points for the vmprov reproduction. `make ci` is the gate a PR
# must pass: static checks, the full test suite with the race detector,
# the kernel fuzz targets in short mode, end-to-end CLI smoke runs, every
# example program, and the benchmark harness's own tests. Throughput is
# measured by `bash bench/run.sh` (see bench/README.md), not by CI.

GO        ?= go
FUZZTIME  ?= 10s
SPECTMP   ?= /tmp/vmprov_spec_smoke.json
TRACETMP  ?= /tmp/vmprov_trace_smoke.jsonl

.PHONY: ci fmt vet lint lint-baseline build test race sweep-race fault-smoke chaos-smoke fuzz sweep-smoke spec-roundtrip ff-smoke snapshot-smoke examples-smoke bench-test bench golden

ci: fmt vet lint build race sweep-race fault-smoke chaos-smoke fuzz sweep-smoke spec-roundtrip ff-smoke snapshot-smoke examples-smoke bench-test

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
# errcmp, hotclosure), the four v2 whole-program invariant passes
# (snapshotfield, splitkey, specstrict, registry), and the lite
# nilness/shadow stock passes (lock copies are go vet's). One gate over
# the whole tree; `make ci` fails on any finding that is neither
# suppressed in source (`//vmprov:allow <analyzer> -- <reason>`) nor
# recorded in the committed baseline. SARIF output: $(GO) run ./cmd/vmprovlint -sarif ./...
LINTBASE ?= lint_baseline.json

lint:
	$(GO) run ./cmd/vmprovlint -baseline $(LINTBASE) ./...

# Re-pin the committed baseline to the tree's current findings. Only for
# adopting a new analyzer with pre-existing debt — never to silence a
# finding your change introduced.
lint-baseline:
	$(GO) run ./cmd/vmprovlint -write-baseline $(LINTBASE) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sweep engine's concurrency properties under the race detector:
# pooled workers, result placement, and the serialized completion hook.
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
	$(GO) test -race -count=1 ./internal/provision -run 'TestBreaker|TestShed|TestAllZonesOpen|TestRetryBackoff|TestRetryPolicyValidate|TestBreakerAndShedPolicyValidate'
	$(GO) test -race -count=1 ./internal/experiment -run 'TestChaos|TestSweepChaos'
	$(GO) run ./cmd/vmprovsim -chaos -scale 0.02 -reps 1 -horizon 3600 > /dev/null

# Short fuzzing of the kernel's heap/arena against the reference
# scheduler, the fault-schedule determinism fuzzer, and the strict v2
# trace decoder (decode/re-encode round-trip). The seed corpora also run
# on every plain `go test`.
fuzz:
	$(GO) test ./internal/sim -run FuzzSimHeap -fuzz FuzzSimHeap -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run FuzzFaultSchedule -fuzz FuzzFaultSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run FuzzChaosSchedule -fuzz FuzzChaosSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run FuzzSnapshotRestore -fuzz FuzzSnapshotRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run FuzzTraceV2Decode -fuzz FuzzTraceV2Decode -fuzztime $(FUZZTIME)

# The declarative-spec test suite: spec/panel/policy-registry
# compilation and the spec-vs-RunAll equivalence property.
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
# tests — every policy of the hybrid panel within
# metrics.HybridTolerance, determinism across worker counts, bit-exact
# -mode=exact, the pinned hybrid golden, a traced hybrid run equal to
# the untraced one — then one traced hybrid CLI replication.
ff-smoke:
	$(GO) test -count=1 ./internal/fluid ./internal/experiment -run 'TestEngine|TestHybrid|TestMode'
	$(GO) run ./cmd/vmprovsim -scenario web -scale 0.05 -horizon 3600 -mode hybrid -trace $(TRACETMP)

# Snapshot/restore smoke: the bit-identity property suite (exact +
# hybrid + fault-enabled + MPC, nested stacks, checkpoint forks, worker
# counts 1/4/8 with pooled contexts) under the race detector, including
# TestMPCGolden (the MPC controller's decisions, pinned bit for bit) and
# TestMPCBeatsWorstBaseline (the MPC policy must not lose to every
# baseline on its own objective), and the federation snapshot tests.
snapshot-smoke:
	$(GO) test -race -count=1 ./internal/experiment -run 'TestSnapshot|TestCheckpoint|TestMPC'
	$(GO) test -race -count=1 ./internal/cloud -run 'TestFederation'

# Run every example program end to end with its default flags (a few
# seconds, most of it webautoscale); a non-zero exit from any fails the
# gate. `build` only compiles them.
examples-smoke:
	@set -e; for pkg in $$($(GO) list ./examples/...); do \
		echo "$(GO) run $$pkg"; \
		$(GO) run $$pkg > /dev/null; \
	done

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
