package workload

import (
	"encoding/json"
	"strings"
	"testing"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

func TestRegistryBuiltins(t *testing.T) {
	names := Registered()
	for _, want := range []string{"web", "scientific", "modulated", "trace"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in kind %q not registered (have %v)", want, names)
		}
	}
}

func TestBuildUnknownKindListsNames(t *testing.T) {
	_, err := Build("no-such-kind", nil)
	if err == nil {
		t.Fatal("unknown kind did not error")
	}
	for _, want := range []string{"no-such-kind", "web", "scientific"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestBuildWebMatchesConstructor(t *testing.T) {
	params, _ := json.Marshal(WebParams{Scale: 0.25})
	b, err := Build("web", params)
	if err != nil {
		t.Fatal(err)
	}
	src := b.NewSource()
	w, ok := src.(*Web)
	if !ok {
		t.Fatalf("source is %T, want *Web", src)
	}
	direct := NewWeb(0.25)
	if w.Scale != direct.Scale || w.Interval != direct.Interval || w.BaseService != direct.BaseService {
		t.Fatalf("spec-built web differs from NewWeb: %+v vs %+v", w, direct)
	}
	an := b.NewAnalyzer(src)
	wa, ok := an.(*WebAnalyzer)
	if !ok || wa.Model != w {
		t.Fatalf("web analyzer wiring wrong: %#v", an)
	}
	// Each NewSource call must yield a fresh, independent model.
	if b.NewSource() == src {
		t.Fatal("NewSource returned a shared source")
	}
}

func TestBuildScientificDefaults(t *testing.T) {
	b, err := Build("scientific", nil) // empty params = paper scale
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := b.NewSource().(*Scientific)
	if !ok || sc.Scale != 1 {
		t.Fatalf("default scientific source wrong: %#v", b.NewSource())
	}
	a, ok := b.NewAnalyzer(sc).(*SciAnalyzer)
	if !ok || a.Model != sc {
		t.Fatalf("scientific analyzer wiring wrong: %#v", a)
	}
	if a.PeakFactor != 1.2 || a.OffPeakFactor != 2.6 {
		t.Fatalf("paper safety factors lost: %+v", a)
	}
}

// TestBuildRejectsNegativeScale: only an omitted (zero) scale means the
// paper's intensity; a negative one used to silently run at scale 1.
func TestBuildRejectsNegativeScale(t *testing.T) {
	for _, kind := range []string{"web", "scientific"} {
		if _, err := Build(kind, json.RawMessage(`{"scale": -1}`)); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("%s scale -1: %v, want an error naming the scale", kind, err)
		}
	}
}

func TestBuildRejectsUnknownParamFields(t *testing.T) {
	_, err := Build("web", json.RawMessage(`{"scale": 1, "typo": 2}`))
	if err == nil || !strings.Contains(err.Error(), "typo") {
		t.Fatalf("unknown param field not rejected: %v", err)
	}
}

func TestBuildModulated(t *testing.T) {
	params, _ := json.Marshal(ModulatedParams{
		Rates:       [2]float64{2, 10},
		Sojourns:    [2]float64{300, 60},
		BaseService: 1,
		Jitter:      0.1,
	})
	b, err := Build("modulated", params)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := b.NewSource().(*MMPPSource)
	if !ok {
		t.Fatalf("source is %T, want *MMPPSource", b.NewSource())
	}
	if src.Rates != [2]float64{2, 10} || src.Sojourns != [2]float64{300, 60} {
		t.Fatalf("modulated source params wrong: %+v", src)
	}
	if _, ok := b.NewAnalyzer(src).(*WindowAnalyzer); !ok {
		t.Fatal("modulated kind should pair with the window analyzer")
	}
	// The source must actually generate traffic.
	s := sim.New()
	n := 0
	src.Start(s, stats.NewRNG(1), func(Request) { n++ })
	s.RunUntil(600)
	if n == 0 {
		t.Fatal("modulated source emitted no requests")
	}

	for _, bad := range []ModulatedParams{
		{Rates: [2]float64{0, 0}, Sojourns: [2]float64{1, 1}, BaseService: 1},
		{Rates: [2]float64{1, 1}, Sojourns: [2]float64{0, 1}, BaseService: 1},
		{Rates: [2]float64{1, 1}, Sojourns: [2]float64{1, 1}, BaseService: 0},
	} {
		raw, _ := json.Marshal(bad)
		if _, err := Build("modulated", raw); err == nil {
			t.Errorf("invalid modulated params accepted: %+v", bad)
		}
	}
}

func TestBuildTrace(t *testing.T) {
	params, _ := json.Marshal(TraceParams{
		Times:       []float64{0, 600, 1200},
		Rates:       []float64{1, 5, 1},
		BaseService: 0.5,
	})
	b, err := Build("trace", params)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := b.NewSource().(*RateTraceSource)
	if !ok {
		t.Fatalf("source is %T, want *RateTraceSource", b.NewSource())
	}
	s := sim.New()
	n := 0
	src.Start(s, stats.NewRNG(2), func(Request) { n++ })
	s.RunUntil(1200)
	if n == 0 {
		t.Fatal("trace source emitted no requests")
	}
	// Sources must not share backing slices: mutating one replication's
	// trace cannot leak into the next.
	other := b.NewSource().(*RateTraceSource)
	other.Rates[0] = 99
	if src.Rates[0] == 99 {
		t.Fatal("trace sources share their rate slice")
	}

	if _, err := Build("trace", json.RawMessage(`{"times":[0],"rates":[1],"base_service":1}`)); err == nil {
		t.Error("single-point trace accepted")
	}
	if _, err := Build("trace", json.RawMessage(`{"times":[0,1],"rates":[1,1],"base_service":0}`)); err == nil {
		t.Error("zero base_service accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("nil constructor", func() { Register("x-nil", nil) })
	assertPanics("duplicate", func() {
		Register("web", func(json.RawMessage) (*Builder, error) { return nil, nil })
	})
}
