package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"vmprov/internal/fault"
	"vmprov/internal/metrics"
)

// StaticWildcard is the panel policy token that expands to one static
// policy per entry of each scenario's StaticFleets ladder — the paper's
// baseline set.
const StaticWildcard = "*"

// staticWildcardName is the full "static:*" policy-list form.
const staticWildcardName = "static:" + StaticWildcard

// PanelSpec is a declarative experiment panel: scenarios × policies ×
// replications at consecutive seeds. It is the serializable form of what
// RunAll hardwires for the paper's Figures 5 and 6, and it compiles
// straight into the sweep engine's flat job queue.
type PanelSpec struct {
	Name      string         `json:"name,omitempty"`
	Scenarios []ScenarioSpec `json:"scenarios"`
	// Policies are resolved through the policy registry ("adaptive",
	// "static:75", "adaptive:window"); the special "static:*" expands to
	// each scenario's StaticFleets ladder.
	Policies []string `json:"policies"`
	// Reps is the replication count per cell (seeds Seed..Seed+Reps-1);
	// zero means 1. The paper averages 10.
	Reps int    `json:"reps"`
	Seed uint64 `json:"seed"`
	// Workers sizes the sweep worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Mode is the panel-wide default simulation mode, applied to every
	// scenario that does not set its own; omitted means exact.
	Mode Mode `json:"mode,omitempty"`
}

// Panel is a compiled PanelSpec: every scenario compiled, every policy
// resolved (with "static:*" expanded per scenario), and the whole grid
// flattened into one job queue in presentation order — per scenario, the
// policies in spec order, each with Reps consecutive seeds.
type Panel struct {
	Spec      PanelSpec
	Scenarios []Scenario
	Policies  [][]Policy // Policies[i] belongs to Scenarios[i]
	jobs      []Job
}

// PanelResult is one scenario's aggregated panel row set, in policy
// order — the data behind one Figure 5/6 panel.
type PanelResult struct {
	Scenario string
	Results  []metrics.Result
}

// reps returns the effective replication count.
func (ps PanelSpec) reps() int {
	if ps.Reps < 1 {
		return 1
	}
	return ps.Reps
}

// Compile validates the panel and resolves it into runnable form. Every
// scenario spec must compile and every policy name must resolve; errors
// carry the offending name and, for registry misses, the registered
// alternatives.
func (ps PanelSpec) Compile() (*Panel, error) {
	if len(ps.Scenarios) == 0 {
		return nil, fmt.Errorf("experiment: panel %q has no scenarios", ps.Name)
	}
	if len(ps.Policies) == 0 {
		return nil, fmt.Errorf("experiment: panel %q has no policies", ps.Name)
	}
	if err := ps.Mode.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: panel %q: %w", ps.Name, err)
	}
	p := &Panel{Spec: ps}
	reps := ps.reps()
	for _, sp := range ps.Scenarios {
		if sp.Mode == "" {
			sp.Mode = ps.Mode
		}
		sc, err := sp.Compile()
		if err != nil {
			return nil, err
		}
		var pols []Policy
		for _, name := range ps.Policies {
			if name == staticWildcardName {
				for _, m := range sc.StaticFleets {
					pols = append(pols, StaticPolicy(m))
				}
				continue
			}
			pol, err := ResolvePolicy(name)
			if err != nil {
				return nil, err
			}
			pols = append(pols, pol)
		}
		if len(pols) == 0 {
			return nil, fmt.Errorf("experiment: panel %q: scenario %q expands to zero policies (static:* with an empty baseline ladder?)", ps.Name, sc.Name)
		}
		p.Scenarios = append(p.Scenarios, sc)
		p.Policies = append(p.Policies, pols)
		for _, pol := range pols {
			for r := 0; r < reps; r++ {
				p.jobs = append(p.jobs, Job{Scenario: sc, Policy: pol, Seed: ps.Seed + uint64(r)})
			}
		}
	}
	return p, nil
}

// Validate compiles the panel and discards the result.
//
//vmprov:allow specstrict -- thin wrapper over Compile, which is the build path's validation; kept as the conventional entry point
func (ps PanelSpec) Validate() error {
	_, err := ps.Compile()
	return err
}

// Jobs exposes the panel's flat job queue (one entry per replication, in
// presentation order).
func (p *Panel) Jobs() []Job { return p.jobs }

// Run sweeps the panel's job queue and aggregates each (scenario, policy)
// cell over its replications, returning one PanelResult per scenario in
// spec order. A zero opts.Workers falls back to the spec's Workers field.
func (p *Panel) Run(opts SweepOptions) []PanelResult {
	if opts.Workers == 0 {
		opts.Workers = p.Spec.Workers
	}
	flat := Sweep(p.jobs, opts)
	reps := p.Spec.reps()
	out := make([]PanelResult, 0, len(p.Scenarios))
	idx := 0
	for i, sc := range p.Scenarios {
		res := make([]metrics.Result, len(p.Policies[i]))
		for j := range p.Policies[i] {
			res[j] = metrics.Aggregate(flat[idx : idx+reps])
			idx += reps
		}
		out = append(out, PanelResult{Scenario: sc.Name, Results: res})
	}
	return out
}

// PaperPanel returns the built-in panel spec of one registered scenario
// (by registry name, e.g. "web" or "scientific") at the given scale
// (0 = the scenario's default): the adaptive policy against the full
// static baseline ladder, exactly what RunAll hardwires.
func PaperPanel(scenario string, scale float64, reps int, seed uint64) (PanelSpec, error) {
	sp, err := BuildScenarioSpec(scenario, scale)
	if err != nil {
		return PanelSpec{}, err
	}
	return PanelSpec{
		Name:      sp.Name + "-panel",
		Scenarios: []ScenarioSpec{sp},
		Policies:  []string{"adaptive", staticWildcardName},
		Reps:      reps,
		Seed:      seed,
	}, nil
}

// FaultPanel returns the built-in resilience panel: the web scenario
// under an MTTF sweep (mean time to failure 6 h, 2 h, 30 min) with boot
// failures, stochastic slow boots, and transient API errors layered on
// top, run for the adaptive policy against the full static ladder. The
// horizon is trimmed to six hours so the committed example panel sweeps
// in seconds, and every fault draws from the per-replication "fault"
// substream, so results are bit-identical across sweep worker counts.
func FaultPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	base := fault.Spec{
		BootFailure:    0.05,
		BootMean:       30,
		SlowBootProb:   0.1,
		SlowBootFactor: 4,
		ProvisionError: 0.05,
		ReleaseError:   0.02,
	}
	mttfs := []struct {
		name string
		mttf float64
	}{
		{"web-mttf-6h", 21600},
		{"web-mttf-2h", 7200},
		{"web-mttf-30m", 1800},
	}
	ps := PanelSpec{
		Name:     "web-fault-panel",
		Policies: []string{"adaptive", staticWildcardName},
		Reps:     reps,
		Seed:     seed,
	}
	for _, c := range mttfs {
		sp, err := BuildScenarioSpec("web", scale)
		if err != nil {
			return PanelSpec{}, err
		}
		sp.Name = c.name
		sp.Horizon = 6 * 3600
		sp.Fault = base
		sp.Fault.MTTF = c.mttf
		ps.Scenarios = append(ps.Scenarios, sp)
	}
	return ps, nil
}

// HybridPanel returns the built-in hybrid fast-forward panel: six hours
// of the web scenario in hybrid mode, adaptive against the full static
// ladder — the validation target the hybrid engine's accuracy contract
// (metrics.HybridTolerance against the same panel in exact mode) is
// checked on, and the benchmark's web-hybrid workload.
func HybridPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	sp, err := BuildScenarioSpec("web", scale)
	if err != nil {
		return PanelSpec{}, err
	}
	sp.Name = "web-hybrid"
	sp.Horizon = 6 * 3600
	return PanelSpec{
		Name:      "web-hybrid-panel",
		Scenarios: []ScenarioSpec{sp},
		Policies:  []string{"adaptive", staticWildcardName},
		Reps:      reps,
		Seed:      seed,
		Mode:      ModeHybrid,
	}, nil
}

// ParsePanelSpec strictly decodes a JSON panel spec: unknown fields are
// an error, so typos in spec files fail loudly instead of silently
// running defaults.
func ParsePanelSpec(data []byte) (PanelSpec, error) {
	var ps PanelSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ps); err != nil {
		return PanelSpec{}, fmt.Errorf("experiment: invalid panel spec: %w", err)
	}
	// Reject trailing garbage after the spec object.
	if dec.More() {
		return PanelSpec{}, fmt.Errorf("experiment: invalid panel spec: trailing data after the spec object")
	}
	return ps, nil
}

// MarshalJSONIndent renders the spec as the canonical indented JSON used
// by the golden spec files under examples/specs/.
func (ps PanelSpec) MarshalJSONIndent() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(ps); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FigureCaption builds the standard caption for one scenario's panel
// table, mirroring the CLI's -all output.
func FigureCaption(panelName string, sc Scenario, reps int) string {
	caption := fmt.Sprintf("%s scenario, scale %g, %d replication(s) averaged",
		sc.Name, sc.Scale, reps)
	if fig, ok := map[string]string{"web": "5", "scientific": "6"}[sc.Name]; ok {
		caption += fmt.Sprintf(" (paper Figure %s)", fig)
	}
	if panelName != "" && !strings.HasPrefix(panelName, sc.Name) {
		caption = panelName + ": " + caption
	}
	return caption
}
