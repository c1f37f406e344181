package experiment

import (
	"testing"

	"vmprov/internal/workload"
)

// TestHeterogeneousCapacityHalvesFleet runs the future-work extension:
// doubling per-VM service capacity should roughly halve the adaptive
// fleet at unchanged QoS.
func TestHeterogeneousCapacityHalvesFleet(t *testing.T) {
	base := Sci(1)
	fast := Sci(1)
	fast.Cfg.VMSpec.Capacity = 2

	rBase, _ := RunOnce(base, AdaptivePolicy(), 5, RunOptions{})
	rFast, _ := RunOnce(fast, AdaptivePolicy(), 5, RunOptions{})

	if rFast.RejectionRate > 0.02 {
		t.Fatalf("fast-VM run rejection %.4f, want ≈0", rFast.RejectionRate)
	}
	ratio := float64(rFast.MaxInstances) / float64(rBase.MaxInstances)
	if ratio < 0.4 || ratio > 0.65 {
		t.Fatalf("2× capacity peak fleet ratio %.2f (%d vs %d), want ≈0.5",
			ratio, rFast.MaxInstances, rBase.MaxInstances)
	}
	// Execution times halve, so the monitored Tm self-calibrates: mean
	// exec ≈ 157 s instead of ≈ 315 s.
	if rFast.MeanExec > 0.6*rBase.MeanExec {
		t.Fatalf("mean exec %.1f vs %.1f: capacity not applied", rFast.MeanExec, rBase.MeanExec)
	}
}

// TestPredictionFactorAblation checks the paper's Section V-B2 rationale:
// stripping the 1.2×/2.6× safety factors leaves the mode-based estimate
// below the realized rate and costs rejections.
func TestPredictionFactorAblation(t *testing.T) {
	plain := Sci(1)
	plain.NewAnalyzer = func(src workload.Source) workload.Analyzer {
		return &workload.SciAnalyzer{Model: src.(*workload.Scientific), PeakFactor: 1.0, OffPeakFactor: 1.0}
	}
	withFactors := Sci(1)

	rPlain, _ := RunOnce(plain, AdaptivePolicy(), 7, RunOptions{})
	rPaper, _ := RunOnce(withFactors, AdaptivePolicy(), 7, RunOptions{})

	if rPlain.RejectionRate < 3*rPaper.RejectionRate {
		t.Fatalf("without safety factors rejection should jump: %.4f vs %.4f",
			rPlain.RejectionRate, rPaper.RejectionRate)
	}
	if rPlain.MaxInstances >= rPaper.MaxInstances {
		t.Fatalf("unpadded estimate should provision fewer instances: %d vs %d",
			rPlain.MaxInstances, rPaper.MaxInstances)
	}
}

// TestBootDelayDegradesGracefully: with a 5-minute VM boot delay, the
// proactive alerts still keep rejection moderate at peak start.
func TestBootDelayDegradesGracefully(t *testing.T) {
	delayed := Sci(1)
	delayed.Cfg.BootDelay = 300
	r, _ := RunOnce(delayed, AdaptivePolicy(), 9, RunOptions{})
	if r.RejectionRate > 0.10 {
		t.Fatalf("5-minute boot delay rejection %.4f, want < 0.10", r.RejectionRate)
	}
	if r.Violations != 0 {
		t.Fatalf("boot delay must not create QoS violations (admission control), got %d", r.Violations)
	}
}

// TestEnergySavings quantifies the paper's "reduced financial and
// environmental costs" motivation: the adaptive policy consumes less
// data-center energy than the peak-sized static fleet.
func TestEnergySavings(t *testing.T) {
	sc := Sci(1)
	adaptive, _ := RunOnce(sc, AdaptivePolicy(), 4, RunOptions{})
	static, _ := RunOnce(sc, StaticPolicy(75), 4, RunOptions{})
	if adaptive.EnergyKWh <= 0 || static.EnergyKWh <= 0 {
		t.Fatalf("energy metering broken: %v vs %v", adaptive.EnergyKWh, static.EnergyKWh)
	}
	if adaptive.EnergyKWh >= static.EnergyKWh {
		t.Fatalf("adaptive energy %.1f kWh should undercut static's %.1f",
			adaptive.EnergyKWh, static.EnergyKWh)
	}
}

// TestRejectionToleranceTradeoff: tightening the modeling tolerance adds
// instances (VM hours) and lowers rejection.
func TestRejectionToleranceTradeoff(t *testing.T) {
	loose := Sci(1)
	loose.Cfg.QoS.RejectionTol = 1e-1
	tight := Sci(1)
	tight.Cfg.QoS.RejectionTol = 1e-6

	rLoose, _ := RunOnce(loose, AdaptivePolicy(), 3, RunOptions{})
	rTight, _ := RunOnce(tight, AdaptivePolicy(), 3, RunOptions{})

	if rTight.VMHours < rLoose.VMHours {
		t.Fatalf("tighter tolerance should cost VM hours: %.1f vs %.1f",
			rTight.VMHours, rLoose.VMHours)
	}
	if rTight.RejectionRate > rLoose.RejectionRate+1e-9 {
		t.Fatalf("tighter tolerance should not reject more: %.4f vs %.4f",
			rTight.RejectionRate, rLoose.RejectionRate)
	}
}
