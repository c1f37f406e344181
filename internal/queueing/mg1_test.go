package queueing

import (
	"math"
	"testing"
)

func TestMG1ReducesToMM1(t *testing.T) {
	// Exponential service: cs² = 1 → P-K gives the M/M/1 wait.
	g := MG1{Lambda: 0.7, MeanS: 1, CS2: 1}
	m := MM1{Lambda: 0.7, Mu: 1}
	within(t, g.WaitTime(), m.WaitTime(), 1e-12, "Wq")
	within(t, g.ResponseTime(), m.ResponseTime(), 1e-12, "W")
	within(t, g.MeanNumber(), m.MeanNumber(), 1e-12, "L")
}

func TestMD1HalvesTheWait(t *testing.T) {
	// Deterministic service waits exactly half the exponential wait.
	d := MG1{Lambda: 0.7, MeanS: 1, CS2: 0}
	m := MM1{Lambda: 0.7, Mu: 1}
	within(t, d.WaitTime(), m.WaitTime()/2, 1e-12, "deterministic wait")
}

func TestMG1Validate(t *testing.T) {
	if (MG1{Lambda: 1, MeanS: 1, CS2: 0}).Validate() == nil {
		t.Fatal("ρ=1 should fail validation")
	}
	if (MG1{Lambda: 0.5, MeanS: 1, CS2: -0.1}).Validate() == nil {
		t.Fatal("negative cs² should fail validation")
	}
	if err := (MG1{Lambda: 0.5, MeanS: 1, CS2: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformJitterCS2(t *testing.T) {
	// The paper's 0–10% jitter: U on [1, 1.1] has var j²/12 = 1/1200 and
	// mean 1.05 → cs² ≈ 0.000756 — service is near-deterministic.
	got := UniformJitterCS2(0.1)
	want := (0.01 / 12) / (1.05 * 1.05)
	within(t, got, want, 1e-12, "cs2")
	if got > 0.001 {
		t.Fatalf("paper service jitter cs² = %v should be tiny", got)
	}
	if UniformJitterCS2(0) != 0 {
		t.Fatal("no jitter → cs² 0")
	}
}

func TestMG1PaperServiceNearMD1(t *testing.T) {
	// With the paper's jitter the M/G/1 wait is within 0.1% of M/D/1 —
	// the quantitative basis for DESIGN.md's note that the M/M/1/k model
	// is conservative for these workloads.
	g := MG1{Lambda: 8, MeanS: 0.105, CS2: UniformJitterCS2(0.1)}
	d := MG1{Lambda: 8, MeanS: 0.105, CS2: 0}
	if math.Abs(g.WaitTime()-d.WaitTime())/d.WaitTime() > 1e-3 {
		t.Fatalf("jittered wait %v vs deterministic %v", g.WaitTime(), d.WaitTime())
	}
	m := MM1{Lambda: 8, Mu: 1 / 0.105}
	if g.WaitTime() > 0.51*m.WaitTime() {
		t.Fatalf("near-deterministic service should wait ≈half of exponential: %v vs %v",
			g.WaitTime(), m.WaitTime())
	}
}
