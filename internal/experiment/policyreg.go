package experiment

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vmprov/internal/workload"
)

// PolicyBuilder builds a policy from the argument following the ":" in a
// policy name ("" when the name has no argument, e.g. "adaptive"; "75"
// for "static:75").
type PolicyBuilder func(arg string) (Policy, error)

// policyEntry pairs a builder with the usage form shown in error
// listings (e.g. "static:<m>").
type policyEntry struct {
	usage string
	build PolicyBuilder
}

var (
	policyMu  sync.RWMutex
	policyReg = map[string]policyEntry{}
)

// RegisterPolicy adds a policy builder under name. usage is the
// human-readable form listed by PolicyNames (pass the name itself for
// argument-less policies). Registering a duplicate or nil builder panics.
func RegisterPolicy(name, usage string, build PolicyBuilder) {
	if name == "" || build == nil {
		panic("experiment: RegisterPolicy needs a name and a builder")
	}
	if usage == "" {
		usage = name
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policyReg[name]; dup {
		panic("experiment: duplicate policy registration " + name)
	}
	policyReg[name] = policyEntry{usage: usage, build: build}
}

// PolicyNames returns the usage forms of the registered policies, sorted.
func PolicyNames() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	names := make([]string, 0, len(policyReg))
	for _, e := range policyReg {
		names = append(names, e.usage)
	}
	sort.Strings(names)
	return names
}

// ResolvePolicy resolves a policy name of the form "name" or "name:arg"
// ("adaptive", "static:75", "adaptive:window"). An unknown name or a bad
// argument yields an error listing the registered policies.
func ResolvePolicy(spec string) (Policy, error) {
	name, arg, _ := strings.Cut(spec, ":")
	policyMu.RLock()
	e, ok := policyReg[name]
	policyMu.RUnlock()
	if !ok {
		return Policy{}, fmt.Errorf("experiment: unknown policy %q (registered: %s)",
			spec, strings.Join(PolicyNames(), ", "))
	}
	pol, err := e.build(arg)
	if err != nil {
		return Policy{}, fmt.Errorf("experiment: policy %q: %w", spec, err)
	}
	return pol, nil
}

func init() {
	RegisterPolicy("adaptive", "adaptive[:window]", func(arg string) (Policy, error) {
		switch arg {
		case "":
			return AdaptivePolicy(), nil
		case "window":
			// The empirical variant: a model-free window analyzer fed by
			// the observed arrival stream instead of the scenario's
			// closed-form predictor.
			return AdaptiveWithAnalyzer("Adaptive-Window",
				func(sc Scenario, src workload.Source) workload.Analyzer {
					return &workload.WindowAnalyzer{Interval: 60, Windows: 5, Safety: 1.2}
				}), nil
		}
		return Policy{}, fmt.Errorf("unknown adaptive variant %q (valid: window)", arg)
	})

	RegisterPolicy("static", "static:<m>", func(arg string) (Policy, error) {
		if arg == StaticWildcard {
			return Policy{}, fmt.Errorf("static:%s expands to a scenario's baseline ladder and is only valid in a panel's policy list", StaticWildcard)
		}
		m, err := parseStaticSize(arg)
		if err != nil {
			return Policy{}, err
		}
		return StaticPolicy(m), nil
	})
}

// parseStaticSize parses the m of "static:<m>".
func parseStaticSize(arg string) (int, error) {
	m, err := strconv.Atoi(arg)
	if err != nil || m < 1 {
		return 0, fmt.Errorf("static:<m> needs a fleet size m ≥ 1, got %q", arg)
	}
	return m, nil
}
