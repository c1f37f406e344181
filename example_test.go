package vmprov_test

import (
	"fmt"

	"vmprov"
)

// The paper's load predictor, standalone: size a fleet for the web peak
// (1200 req/s of 105 ms requests, Ts = 250 ms, 80% utilization floor).
func ExampleAlgorithm1() {
	m := vmprov.Algorithm1(vmprov.SizingInput{
		Lambda:  1200,
		Tm:      0.105,
		K:       2,
		Current: 55,
		MaxVMs:  1000,
		QoS: vmprov.QoS{
			Ts:             0.250,
			MaxRejection:   0,
			RejectionTol:   1e-3,
			MinUtilization: 0.80,
		},
	})
	fmt.Println(m, "instances")
	// Output: 154 instances
}

// Equation 1: the per-instance queue size from the negotiated response
// time and the nominal execution time.
func ExampleQoS() {
	web := vmprov.Config{
		QoS:       vmprov.QoS{Ts: 0.250, MinUtilization: 0.8},
		NominalTr: 0.100,
		MaxVMs:    200,
	}
	fmt.Println("k =", vmprov.QueueSize(web.QoS.Ts, web.NominalTr))
	// Output: k = 2
}

// One replication of the paper's scientific scenario under both policies.
func ExampleRunOnce() {
	sc := vmprov.Sci(1)
	adaptive, _ := vmprov.RunOnce(sc, vmprov.Adaptive(), 42, vmprov.RunOptions{})
	static, _ := vmprov.RunOnce(sc, vmprov.Static(75), 42, vmprov.RunOptions{})
	fmt.Printf("adaptive fleet %d–%d, static fleet %d–%d\n",
		adaptive.MinInstances, adaptive.MaxInstances,
		static.MinInstances, static.MaxInstances)
	fmt.Printf("adaptive uses less than half the VM hours: %v\n",
		adaptive.VMHours < 0.5*static.VMHours)
	// Output:
	// adaptive fleet 9–79, static fleet 75–75
	// adaptive uses less than half the VM hours: true
}

// SLA evaluation of per-class outcomes (future-work extension).
func ExampleEvaluateSLA() {
	agreement := vmprov.SLAAgreement{Commitments: []vmprov.SLACommitment{
		{Class: 1, MaxRejectionRate: 0.01, RevenuePerRequest: 1, PenaltyPerBreach: 500},
	}}
	report := vmprov.EvaluateSLA(agreement, []vmprov.ClassResult{
		{Class: 1, Accepted: 900, Rejected: 100, RejectionRate: 0.1},
	})
	fmt.Printf("compliant=%v net=%.0f\n", report.Compliant(), report.Net())
	// Output: compliant=false net=400
}
