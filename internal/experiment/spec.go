package experiment

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"vmprov/internal/cloud"
	"vmprov/internal/fault"
	"vmprov/internal/provision"
	"vmprov/internal/workload"
)

// ScenarioSpec is the declarative, serializable form of a Scenario: a
// named workload kind with typed parameters instead of Go closures. A
// spec can be marshaled to/from JSON, validated, and compiled into the
// runnable Scenario the runners consume. Web()/Sci() are thin wrappers
// that build their spec and compile it, so a spec round trip reproduces
// the paper's figures bit-identically.
type ScenarioSpec struct {
	Name string `json:"name"`
	// Workload names a registered workload kind (see workload.Register);
	// Params is that kind's typed parameter struct in raw form.
	Workload string          `json:"workload"`
	Params   json.RawMessage `json:"params,omitempty"`
	// Scale is the display scale recorded in results and captions (the
	// workload's own scale lives in Params). Zero means 1; a negative or
	// non-finite scale does not compile.
	Scale   float64 `json:"scale,omitempty"`
	Horizon float64 `json:"horizon"`
	// Mode selects exact or hybrid fast-forward simulation; omitted
	// means exact, keeping pre-mode spec files and goldens byte-stable.
	Mode Mode `json:"mode,omitempty"`
	// Config is the provisioner configuration (QoS contract, nominal
	// service time, VM ceiling and spec).
	Config provision.Config `json:"config"`
	// Placement names the VM-to-host policy; absent means the paper's
	// least-loaded default.
	Placement    cloud.Placement `json:"placement,omitempty"`
	StaticFleets []int           `json:"static_fleets,omitempty"`
	// Fault declares injected IaaS faults; omitted (zero) means the
	// paper's perfectly reliable cloud.
	Fault fault.Spec `json:"fault,omitzero"`
}

// Compile validates the spec and resolves it into a runnable Scenario:
// the workload kind is looked up in the registry, its parameters are
// strictly decoded, and the provisioner configuration is checked (bad
// QoS/Config values — non-positive Ts or NominalTr, MaxVMs < 1,
// k = ⌊Ts/Tr⌋ < 1 — are compile errors, not silent zero-capacity runs).
func (sp ScenarioSpec) Compile() (Scenario, error) {
	if sp.Name == "" {
		return Scenario{}, fmt.Errorf("experiment: scenario spec missing name")
	}
	if !workload.ValidScale(sp.Scale) {
		return Scenario{}, fmt.Errorf("experiment: scenario %q: scale %v must be finite and non-negative (0 means 1)", sp.Name, sp.Scale)
	}
	b, err := workload.Build(sp.Workload, sp.Params)
	if err != nil {
		return Scenario{}, fmt.Errorf("experiment: scenario %q: %w", sp.Name, err)
	}
	scale := sp.Scale
	if scale == 0 {
		scale = 1
	}
	sc := Scenario{
		Name:         sp.Name,
		Scale:        scale,
		Horizon:      sp.Horizon,
		Mode:         sp.Mode,
		Cfg:          sp.Config,
		StaticFleets: slices.Clone(sp.StaticFleets),
		Placement:    sp.Placement,
		Fault:        sp.Fault,
		NewSource:    b.NewSource,
		NewAnalyzer:  b.NewAnalyzer,
		Clients:      b.Clients,
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Validate compiles the spec and discards the result, reporting every
// error Compile would.
//
//vmprov:allow specstrict -- thin wrapper over Compile, which is the build path's validation; kept as the conventional entry point
func (sp ScenarioSpec) Validate() error {
	_, err := sp.Compile()
	return err
}

// scenarioEntry is one registered named scenario: a spec builder plus the
// default scale the CLI uses when none is given.
type scenarioEntry struct {
	build        func(scale float64) ScenarioSpec
	defaultScale float64
}

var (
	scenarioMu  sync.RWMutex
	scenarioReg = map[string]scenarioEntry{}
)

// RegisterScenario adds a named scenario spec builder (the extension
// point mirroring workload.Register at the scenario level). defaultScale
// is used when a zero scale is requested.
func RegisterScenario(name string, defaultScale float64, build func(scale float64) ScenarioSpec) {
	if name == "" || build == nil {
		panic("experiment: RegisterScenario needs a name and a builder")
	}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioReg[name]; dup {
		panic("experiment: duplicate scenario registration " + name)
	}
	scenarioReg[name] = scenarioEntry{build: build, defaultScale: defaultScale}
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	names := make([]string, 0, len(scenarioReg))
	for n := range scenarioReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuildScenarioSpec resolves a registered scenario by name at the given
// scale (0 = the scenario's default scale). An unknown name lists the
// registered ones; a negative or non-finite scale is an error.
func BuildScenarioSpec(name string, scale float64) (ScenarioSpec, error) {
	scenarioMu.RLock()
	e, ok := scenarioReg[name]
	scenarioMu.RUnlock()
	if !ok {
		return ScenarioSpec{}, fmt.Errorf("experiment: unknown scenario %q (registered: %s)",
			name, strings.Join(ScenarioNames(), ", "))
	}
	if !workload.ValidScale(scale) {
		return ScenarioSpec{}, fmt.Errorf("experiment: scenario %q: scale %v must be finite and non-negative (0 = the scenario default)", name, scale)
	}
	if scale == 0 {
		scale = e.defaultScale
	}
	return e.build(scale), nil
}

// builderScale is the scale a built-in spec builder records: 0 means 1,
// and any other scale passes through, so Compile rejects a negative or
// non-finite one.
func builderScale(scale float64) float64 {
	if scale == 0 {
		return 1
	}
	return scale
}

// WebSpec returns the declarative form of the paper's web scenario
// (Section V-B1) at the given load scale; Web(scale) is exactly
// WebSpec(scale) compiled.
func WebSpec(scale float64) ScenarioSpec {
	scale = builderScale(scale)
	params, _ := json.Marshal(workload.WebParams{Scale: scale})
	sp := ScenarioSpec{
		Name:     "web",
		Workload: "web",
		Params:   params,
		Scale:    scale,
		Horizon:  workload.Week,
		Config: provision.Config{
			QoS: provision.QoS{
				Ts:             0.250,
				MaxRejection:   0,
				RejectionTol:   1e-3,
				MinUtilization: 0.80,
			},
			NominalTr: 0.100,
			MaxVMs:    maxVMs(200, scale),
			VMSpec:    cloud.DefaultVMSpec(),
		},
	}
	sp.StaticFleets = staticLadder(scale, 50, 75, 100, 125, 150)
	return sp
}

// SciSpec returns the declarative form of the paper's scientific scenario
// (Section V-B2) at the given load scale; Sci(scale) is exactly
// SciSpec(scale) compiled.
func SciSpec(scale float64) ScenarioSpec {
	scale = builderScale(scale)
	params, _ := json.Marshal(workload.SciParams{Scale: scale})
	sp := ScenarioSpec{
		Name:     "scientific",
		Workload: "scientific",
		Params:   params,
		Scale:    scale,
		Horizon:  workload.Day,
		Config: provision.Config{
			QoS: provision.QoS{
				Ts:             700,
				MaxRejection:   0,
				RejectionTol:   1e-3,
				MinUtilization: 0.80,
			},
			NominalTr: 300,
			MaxVMs:    maxVMs(120, scale),
			VMSpec:    cloud.DefaultVMSpec(),
		},
	}
	sp.StaticFleets = staticLadder(scale, 15, 30, 45, 60, 75)
	return sp
}

func init() {
	RegisterScenario("web", 0.1, WebSpec)
	RegisterScenario("scientific", 1, SciSpec)
	RegisterScenario("sci", 1, SciSpec) // CLI alias
}
