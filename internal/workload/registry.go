package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"vmprov/internal/stats"
)

// Builder is the compiled form of a declarative workload spec: factories
// for fresh per-replication sources and for the analyzer the adaptive
// policy pairs with them.
type Builder struct {
	NewSource   func() Source
	NewAnalyzer func(src Source) Analyzer

	// Clients lists the workload's client cohorts in spec order, for
	// kinds that generate tagged multi-client traffic ("multi",
	// "tracev2"); nil for single-source kinds. Scenario compilation
	// forwards it so reports can render per-client and per-SLO-class
	// rows.
	Clients []ClientInfo
}

// Constructor builds a Builder from raw JSON parameters. A nil/empty
// params value must yield the kind's defaults; unknown JSON fields are an
// error (specs are validated strictly).
type Constructor func(params json.RawMessage) (*Builder, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Constructor{}
)

// Register adds a workload kind under name. Third-party workloads plug in
// here (typically from an init function); registering a duplicate or nil
// constructor panics.
func Register(name string, ctor Constructor) {
	if name == "" || ctor == nil {
		panic("workload: Register needs a name and a constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of kind " + name)
	}
	registry[name] = ctor
}

// Registered returns the registered workload kind names, sorted.
func Registered() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build resolves a workload kind by name and constructs its Builder from
// the given parameters. An unknown name lists the registered kinds.
func Build(name string, params json.RawMessage) (*Builder, error) {
	regMu.RLock()
	ctor, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown kind %q (registered: %s)",
			name, strings.Join(Registered(), ", "))
	}
	b, err := ctor(params)
	if err != nil {
		return nil, fmt.Errorf("workload: kind %q: %w", name, err)
	}
	return b, nil
}

// DecodeParams strictly unmarshals raw spec parameters into a typed
// parameter struct: unknown fields are rejected so typos in spec files
// fail loudly. Empty or null params leave the struct's defaults intact.
func DecodeParams(raw json.RawMessage, into any) error {
	if len(raw) == 0 || string(raw) == "null" {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("invalid params: %w", err)
	}
	return nil
}

// WebParams parameterizes the "web" kind (the paper's Wikipedia-derived
// workload). A zero scale means the paper's full intensity (1); a
// negative one is an error.
type WebParams struct {
	Scale float64 `json:"scale,omitempty"`
}

// SciParams parameterizes the "scientific" kind (the paper's Bag-of-Tasks
// workload). A zero scale means the paper's full intensity (1); a
// negative one is an error.
type SciParams struct {
	Scale float64 `json:"scale,omitempty"`
}

// WindowParams tune the empirical window analyzer paired with the
// model-free kinds ("modulated", "trace"). Zero fields take the defaults:
// 60 s windows, 5 windows of history, 1.2 safety margin.
type WindowParams struct {
	Interval float64 `json:"interval,omitempty"`
	Windows  int     `json:"windows,omitempty"`
	Safety   float64 `json:"safety,omitempty"`
}

func (wp WindowParams) analyzer() Analyzer {
	a := &WindowAnalyzer{Interval: wp.Interval, Windows: wp.Windows, Safety: wp.Safety}
	if a.Interval <= 0 {
		a.Interval = 60
	}
	if a.Windows <= 0 {
		a.Windows = 5
	}
	if a.Safety <= 0 {
		a.Safety = 1.2
	}
	return a
}

// ModulatedParams parameterize the "modulated" kind: a two-state MMPP
// source (burstier-than-Poisson traffic) observed by a window analyzer.
type ModulatedParams struct {
	Rates       [2]float64   `json:"rates"`
	Sojourns    [2]float64   `json:"sojourns"`
	BaseService float64      `json:"base_service"`
	Jitter      float64      `json:"jitter,omitempty"`
	Window      WindowParams `json:"window,omitempty"`
}

func (p ModulatedParams) validate() error {
	if p.Rates[0] < 0 || p.Rates[1] < 0 || p.Rates[0]+p.Rates[1] <= 0 {
		return fmt.Errorf("modulated rates %v must be non-negative with a positive sum", p.Rates)
	}
	if p.Sojourns[0] <= 0 || p.Sojourns[1] <= 0 {
		return fmt.Errorf("modulated sojourns %v must be positive", p.Sojourns)
	}
	if p.BaseService <= 0 {
		return fmt.Errorf("modulated base_service must be positive, got %v", p.BaseService)
	}
	if p.Jitter < 0 {
		return fmt.Errorf("modulated jitter must be non-negative, got %v", p.Jitter)
	}
	return nil
}

// TraceParams parameterize the "trace" kind: a non-homogeneous Poisson
// process replaying a measured piecewise-linear rate curve, observed by a
// window analyzer.
type TraceParams struct {
	Times       []float64    `json:"times"`
	Rates       []float64    `json:"rates"`
	Cycle       bool         `json:"cycle,omitempty"`
	BaseService float64      `json:"base_service"`
	Jitter      float64      `json:"jitter,omitempty"`
	Window      WindowParams `json:"window,omitempty"`
}

// jitterService is the service-time idiom shared by the built-in kinds:
// the base execution time inflated by U(0, jitter).
func jitterService(base, jitter float64) stats.Sampler {
	return stats.Scaled{S: stats.Uniform{Min: 1, Max: 1 + jitter}, Factor: base}
}

// ValidScale reports whether a load scale is usable: finite and not
// negative. Zero stands for a default wherever a scale is read.
func ValidScale(scale float64) bool {
	return scale >= 0 && !math.IsInf(scale, 1)
}

// paramScale resolves a kind's scale parameter: 0 (omitted) means 1, and
// a negative or non-finite scale is an error.
func paramScale(scale float64) (float64, error) {
	if !ValidScale(scale) {
		return 0, fmt.Errorf("scale %v must be finite and non-negative (0 means 1)", scale)
	}
	if scale == 0 {
		return 1, nil
	}
	return scale, nil
}

func init() {
	Register("web", func(raw json.RawMessage) (*Builder, error) {
		var p WebParams
		if err := DecodeParams(raw, &p); err != nil {
			return nil, err
		}
		scale, err := paramScale(p.Scale)
		if err != nil {
			return nil, err
		}
		return &Builder{
			NewSource: func() Source { return NewWeb(scale) },
			NewAnalyzer: func(src Source) Analyzer {
				return &WebAnalyzer{Model: src.(*Web)}
			},
		}, nil
	})

	Register("scientific", func(raw json.RawMessage) (*Builder, error) {
		var p SciParams
		if err := DecodeParams(raw, &p); err != nil {
			return nil, err
		}
		scale, err := paramScale(p.Scale)
		if err != nil {
			return nil, err
		}
		return &Builder{
			NewSource: func() Source { return NewScientific(scale) },
			NewAnalyzer: func(src Source) Analyzer {
				return NewSciAnalyzer(src.(*Scientific))
			},
		}, nil
	})

	Register("modulated", func(raw json.RawMessage) (*Builder, error) {
		var p ModulatedParams
		if err := DecodeParams(raw, &p); err != nil {
			return nil, err
		}
		if err := p.validate(); err != nil {
			return nil, err
		}
		return &Builder{
			NewSource: func() Source {
				return &MMPPSource{
					Rates:    p.Rates,
					Sojourns: p.Sojourns,
					Service:  jitterService(p.BaseService, p.Jitter),
				}
			},
			NewAnalyzer: func(Source) Analyzer { return p.Window.analyzer() },
		}, nil
	})

	Register("trace", func(raw json.RawMessage) (*Builder, error) {
		var p TraceParams
		if err := DecodeParams(raw, &p); err != nil {
			return nil, err
		}
		if p.BaseService <= 0 {
			return nil, fmt.Errorf("trace base_service must be positive, got %v", p.BaseService)
		}
		if p.Jitter < 0 {
			return nil, fmt.Errorf("trace jitter must be non-negative, got %v", p.Jitter)
		}
		probe := &RateTraceSource{Times: p.Times, Rates: p.Rates, Cycle: p.Cycle}
		if err := probe.Validate(); err != nil {
			return nil, err
		}
		return &Builder{
			NewSource: func() Source {
				return &RateTraceSource{
					Times:   append([]float64(nil), p.Times...),
					Rates:   append([]float64(nil), p.Rates...),
					Cycle:   p.Cycle,
					Service: jitterService(p.BaseService, p.Jitter),
				}
			},
			NewAnalyzer: func(Source) Analyzer { return p.Window.analyzer() },
		}, nil
	})
}
