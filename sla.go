package vmprov

import (
	"vmprov/internal/metrics"
	"vmprov/internal/sla"
)

// SLA evaluation (future-work extension): per-class commitments with
// revenue and penalties, checked against a run's class metrics.
type (
	// SLACommitment is one class's agreed service level.
	SLACommitment = sla.Commitment
	// SLAAgreement is a set of commitments.
	SLAAgreement = sla.Agreement
	// SLABreach is one violated commitment term.
	SLABreach = sla.Breach
	// SLAReport is the compliance-and-penalty outcome.
	SLAReport = sla.Report
	// ClassResult is one priority class's metrics, as Result.Classes
	// lists them.
	ClassResult = metrics.ClassResult
)

// EvaluateSLA checks per-class run metrics against an agreement.
func EvaluateSLA(a SLAAgreement, classes []ClassResult) SLAReport {
	return sla.Evaluate(a, classes)
}
