package vmprov

import (
	"vmprov/internal/composite"
	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
)

// Composite-service extension (the paper's future work, Section VII):
// request pipelines across multiple provisioned tiers.
type (
	// Stage declares one tier of a composite pipeline.
	Stage = composite.Stage
	// Pipeline is a running composite deployment.
	Pipeline = composite.Pipeline
	// PipelineResult summarizes a composite run.
	PipelineResult = composite.Result
	// ClassResult is one priority class's metrics (SLA extension), as
	// Result.Classes lists them.
	ClassResult = metrics.ClassResult
	// AdaptiveController is the paper's controller, exported for custom
	// wiring (policies and pipeline stages).
	AdaptiveController = provision.Adaptive
	// StaticController provisions a fixed fleet.
	StaticController = provision.Static
	// ScheduledController applies a pre-planned scaling time table.
	ScheduledController = provision.Scheduled
)

// NewPipeline builds a composite pipeline on the given simulator and data
// center (nil = the paper's default) with an end-to-end response target.
func NewPipeline(s *sim.Sim, dc *Datacenter, tsTotal float64, stages []Stage) *Pipeline {
	return composite.New(s, dc, tsTotal, stages)
}
