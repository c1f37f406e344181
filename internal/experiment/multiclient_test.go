package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// smallMultiSpec shrinks the built-in web-multi scenario for test
// runtime: 1% of the default aggregate rate over ten simulated minutes.
func smallMultiSpec(t *testing.T) ScenarioSpec {
	t.Helper()
	sp, err := BuildScenarioSpec("web-multi", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sp.Horizon = 600
	return sp
}

// tinyConfig is a shared provisioner configuration for the identity
// tests below; both sides of each comparison must use the same one.
func tinyConfig() provision.Config {
	return provision.Config{
		QoS: provision.QoS{
			Ts:             0.250,
			MaxRejection:   0,
			RejectionTol:   1e-3,
			MinUtilization: 0.80,
		},
		NominalTr: 0.100,
		MaxVMs:    50,
		VMSpec:    cloud.DefaultVMSpec(),
	}
}

// TestGoldenTraceFile pins the committed example trace: re-recording the
// web-multi scenario at the parameters in the file's provenance comment
// must reproduce it byte for byte. Regenerate with:
//
//	go run ./cmd/vmprovsim -scenario web-multi -scale 0.01 -horizon 60 -seed 1 -record examples/specs/web_multiclient.trace
func TestGoldenTraceFile(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "specs", "web_multiclient.trace")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden trace file missing: %v", err)
	}

	sp, err := BuildScenarioSpec("web-multi", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sp.Horizon = 60
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := RecordTrace(sc, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s is stale — regenerate with -record (see test comment)", path)
	}

	// The committed trace must also decode cleanly with a matching
	// record count and the scenario's four-client roster.
	hdr, recs, err := trace.DecodeV2(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden trace does not decode: %v", err)
	}
	if len(recs) != n {
		t.Errorf("decoded %d records, recorded %d", len(recs), n)
	}
	if len(hdr.Clients) != 4 {
		t.Errorf("golden trace declares %d clients, want 4", len(hdr.Clients))
	}
}

// TestSingleClientMultiMatchesLegacy is the degeneration contract at the
// scenario level: a one-client "multi" spec must reproduce the
// equivalent legacy single-source scenario bit for bit. The MMPP client
// with the paper's jittered service sizes maps exactly onto the
// "modulated" kind, so the only permitted difference is the per-client
// rows the multi side gains (its requests carry the client tag).
func TestSingleClientMultiMatchesLegacy(t *testing.T) {
	const (
		rate    = 30.0
		peak    = 3.0
		horizon = 600.0
	)
	sojourns := [2]float64{100, 20}
	// Stationary-mean-preserving low-state factor, as ArrivalSpec derives
	// it: (s0 + s1 - peak·s1) / s0.
	low := (sojourns[0] + sojourns[1] - peak*sojourns[1]) / sojourns[0]

	multiParams, err := json.Marshal(workload.MultiParams{
		AggregateRate: rate,
		Clients: []workload.ClientSpec{{
			Name:         "svc",
			RateFraction: 1,
			SLOClass:     "interactive",
			Arrival: workload.ArrivalSpec{
				Process:  workload.ArrivalMMPP,
				Peak:     peak,
				Sojourns: sojourns,
			},
			Size: workload.SizeSpec{Dist: "jitter", Mean: 0.1, Jitter: 0.1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	legacyParams, err := json.Marshal(workload.ModulatedParams{
		Rates:       [2]float64{rate * low, rate * peak},
		Sojourns:    sojourns,
		BaseService: 0.1,
		Jitter:      0.1,
	})
	if err != nil {
		t.Fatal(err)
	}

	multiSpec := ScenarioSpec{
		Name: "one-client", Workload: "multi", Params: multiParams,
		Horizon: horizon, Config: tinyConfig(), StaticFleets: []int{5},
	}
	legacySpec := ScenarioSpec{
		Name: "legacy", Workload: "modulated", Params: legacyParams,
		Horizon: horizon, Config: tinyConfig(), StaticFleets: []int{5},
	}
	multiSc, err := multiSpec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	legacySc, err := legacySpec.Compile()
	if err != nil {
		t.Fatal(err)
	}

	for _, pol := range []Policy{AdaptivePolicy(), StaticPolicy(5)} {
		got, _ := RunOnce(multiSc, pol, 5, RunOptions{})
		want, _ := RunOnce(legacySc, pol, 5, RunOptions{})
		if len(got.Clients) != 1 || got.Clients[0].Client != "svc" ||
			got.Clients[0].Accepted != got.Accepted {
			t.Fatalf("%s: multi run's client rows inconsistent: %+v (accepted %d)",
				pol.Name, got.Clients, got.Accepted)
		}
		got.Clients = nil // the only permitted difference
		if !metrics.Equal(got, want) {
			t.Errorf("%s: single-client multi differs from modulated:\nmulti:  %+v\nlegacy: %+v",
				pol.Name, got, want)
		}
	}
}

// TestSingleClientPoissonMatchesSource checks the same degeneration one
// layer down: a one-client Poisson multi source draws the exact request
// stream of a PoissonSource at the same rate and service distribution
// (same substream labels, parent RNG passed through unsplit).
func TestSingleClientPoissonMatchesSource(t *testing.T) {
	const (
		rate    = 20.0
		mean    = 0.1
		horizon = 300.0
		seed    = 42
	)
	ms, err := workload.NewMultiSource(rate, []workload.ClientSpec{{
		Name:         "c",
		RateFraction: 1,
		Arrival:      workload.ArrivalSpec{Process: workload.ArrivalPoisson},
		Size:         workload.SizeSpec{Dist: "exponential", Mean: mean},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ps := &workload.PoissonSource{Rate: rate, Service: stats.Exponential{Rate: 1 / mean}}

	collect := func(src workload.Source) []workload.Request {
		var reqs []workload.Request
		s := sim.New()
		src.Start(s, stats.NewRNG(seed), func(q workload.Request) { reqs = append(reqs, q) })
		s.RunUntil(horizon)
		return reqs
	}
	got := collect(ms)
	want := collect(ps)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("request counts differ: multi %d, poisson %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Client != "c" {
			t.Fatalf("request %d missing client tag: %+v", i, got[i])
		}
		got[i].Client = "" // the only permitted difference
		if got[i] != want[i] {
			t.Fatalf("request %d differs:\nmulti:   %+v\npoisson: %+v", i, got[i], want[i])
		}
	}
}

// TestMultiPanelDeterministicAcrossWorkers renders the full multi-client
// panel (figure CSV plus the per-client breakdown) at three worker
// counts; the bytes must be identical — parallel scheduling and pooled
// contexts must never show through the per-client accounting.
func TestMultiPanelDeterministicAcrossWorkers(t *testing.T) {
	spec, err := MultiClientPanel(0.01, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scenarios[0].Horizon = 600

	render := func(workers int) string {
		panel, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, pr := range panel.Run(SweepOptions{Workers: workers}) {
			out += ResultsCSV(pr.Results) + ClientBreakdownCSV(pr.Results)
		}
		return out
	}
	want := render(1)
	if want == "" {
		t.Fatal("panel rendered no output")
	}
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != want {
			t.Errorf("panel output differs between workers=1 and workers=%d:\n%s\nvs\n%s",
				workers, want, got)
		}
	}
}

// TestRunContextReuseMultiClient extends the pooled-context rewind
// property to client accounting: a multi-client run in a reused context
// must match a fresh one bit for bit, and a single-source run sandwiched
// between multi runs must not inherit stale client rows.
func TestRunContextReuseMultiClient(t *testing.T) {
	multiSc, err := smallMultiSpec(t).Compile()
	if err != nil {
		t.Fatal(err)
	}
	web := Web(0.05)
	web.Horizon = 3600
	pol := AdaptivePolicy()

	freshMulti, _ := RunOnce(multiSc, pol, 9, RunOptions{})
	freshWeb, _ := RunOnce(web, pol, 9, RunOptions{})
	if len(freshMulti.Clients) != 4 {
		t.Fatalf("multi run carries %d client rows, want 4", len(freshMulti.Clients))
	}

	rc := NewRunContext()
	first, _ := rc.Run(multiSc, pol, 9, RunOptions{})
	mid, _ := rc.Run(web, pol, 9, RunOptions{})
	again, _ := rc.Run(multiSc, pol, 9, RunOptions{})

	if !metrics.Equal(first, freshMulti) {
		t.Errorf("cold pooled multi run differs from fresh RunOnce:\n%+v\n%+v", first, freshMulti)
	}
	if len(mid.Clients) != 0 {
		t.Errorf("single-source run inherited stale client rows: %+v", mid.Clients)
	}
	if !metrics.Equal(mid, freshWeb) {
		t.Errorf("pooled web run after multi differs from fresh RunOnce:\n%+v\n%+v", mid, freshWeb)
	}
	if !metrics.Equal(again, freshMulti) {
		t.Errorf("warmed pooled multi run differs from fresh RunOnce:\n%+v\n%+v", again, freshMulti)
	}
}

// TestRecordReplayBitIdentity is the trace-v2 contract: recording a
// scenario's arrival stream and replaying it through the "tracev2" kind
// reproduces the original run's metrics bit for bit — per-client rows
// included. Only the kernel event count may differ (the replay walks one
// pre-materialized batch instead of per-client generator chains), so
// Events is zeroed on both sides before comparing.
func TestRecordReplayBitIdentity(t *testing.T) {
	const seed = 11
	sc, err := smallMultiSpec(t).Compile()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "multi.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := RecordTrace(sc, seed, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recorded an empty trace")
	}

	params, err := json.Marshal(workload.TraceV2Params{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	replaySpec := ScenarioSpec{
		Name:     "web-multi-replay",
		Workload: "tracev2",
		Params:   params,
		Horizon:  sc.Horizon,
		Config:   sc.Cfg,
	}
	replaySc, err := replaySpec.Compile()
	if err != nil {
		t.Fatal(err)
	}

	for _, pol := range []Policy{AdaptivePolicy(), StaticPolicy(2)} {
		want, _ := RunOnce(sc, pol, seed, RunOptions{})
		got, _ := RunOnce(replaySc, pol, seed, RunOptions{})
		if want.Events == 0 || got.Events == 0 {
			t.Fatalf("%s: missing kernel event counts (%d, %d)", pol.Name, want.Events, got.Events)
		}
		want.Events, got.Events = 0, 0
		if !metrics.Equal(got, want) {
			t.Errorf("%s: replay differs from recorded run:\nreplay: %+v\nlive:   %+v",
				pol.Name, got, want)
		}
	}
}

// acceptCount counts the accept events of each request ID.
type acceptCount map[uint64]int

func (c acceptCount) Record(e trace.Event) {
	if e.Kind == trace.KindAccept {
		c[e.Req]++
	}
}

// TestMultiClientRequestIDsUnique: trace events carry no client tag, so
// a request's ID is its only identity in the stream. In a traced
// multi-client run without faults (nothing is re-queued), every accept
// event must carry a distinct ID.
func TestMultiClientRequestIDsUnique(t *testing.T) {
	sp, err := BuildScenarioSpec("web-multi", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sp.Horizon = 120
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	seen := acceptCount{}
	RunOnce(sc, AdaptivePolicy(), 1, RunOptions{Tracer: seen})
	accepts, dups := 0, 0
	for _, n := range seen {
		accepts += n
		if n > 1 {
			dups++
		}
	}
	if accepts == 0 || dups > 0 {
		t.Fatalf("%d accept events carry %d distinct IDs, %d of them accepted more than once",
			accepts, len(seen), dups)
	}
}
