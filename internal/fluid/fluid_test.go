package fluid

import (
	"math"
	"testing"

	"vmprov/internal/metrics"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// fakeFleet is a fixed operating point whose trace events the test
// records by hand, the way the provisioner would: every 20th emitted
// request is rejected, the rest are served instantly with a 100 ms
// response.
type fakeFleet struct {
	m, k int
	tm   float64
	rec  trace.Recorder
}

func (f *fakeFleet) Committed() int               { return f.m }
func (f *fakeFleet) K() int                       { return f.k }
func (f *fakeFleet) MonitoredTm() float64         { return f.tm }
func (f *fakeFleet) SetTracer(rec trace.Recorder) { f.rec = rec }

// serve records q's completion after service over [start, finish].
func (f *fakeFleet) serve(q workload.Request, start, finish float64) {
	f.rec.Record(trace.Event{
		T: finish, Kind: trace.KindComplete, Req: q.ID,
		Value: finish - start, Response: finish - q.Arrival,
	})
}

// reject records q's rejection.
func (f *fakeFleet) reject(q workload.Request) {
	f.rec.Record(trace.Event{T: q.Arrival, Kind: trace.KindReject, Req: q.ID})
}

// fakeSource ticks every 60 s with 550–650 requests per tick, drawn from
// the run's seeded stream like a real source.
type fakeSource struct {
	fleet *fakeFleet
	tk    *fakeTicker // retained so tests can read the offered total
}

func (fs *fakeSource) MeanRate(float64) float64 { return 600.0 / 60 }
func (fs *fakeSource) TickInterval() float64    { return 60 }
func (fs *fakeSource) Start(s *sim.Sim, r *stats.RNG, emit func(workload.Request)) {
	tk := fs.NewTicker(s, r, emit)
	s.Every(0, 60, func(now float64) { tk.Emit(now, tk.SampleCount(now)) })
}
func (fs *fakeSource) NewTicker(s *sim.Sim, r *stats.RNG, emit func(workload.Request)) workload.Ticker {
	fs.tk = &fakeTicker{emit: emit, rng: r.Split("fake/rate")}
	return fs.tk
}

type fakeTicker struct {
	emit    func(workload.Request)
	rng     *stats.RNG
	id      uint64
	offered uint64 // Σ sampled counts, the ground truth for conservation
}

func (tk *fakeTicker) SampleCount(float64) int {
	n := 550 + tk.rng.IntN(101)
	tk.offered += uint64(n)
	return n
}

func (tk *fakeTicker) Emit(now float64, n int) {
	for i := 0; i < n; i++ {
		tk.id++
		tk.emit(workload.Request{ID: tk.id, Arrival: now, Service: 0.1})
	}
}

// harness wires an engine over the fakes and runs it for the given
// number of ticks, returning the engine and the collector's result.
func runFake(t *testing.T, seed uint64, ticks int, change func(s *sim.Sim, fl *fakeFleet)) (*Engine, *fakeSource, metrics.Result) {
	t.Helper()
	s := sim.New()
	col := metrics.NewCollector(0.25)
	fl := &fakeFleet{m: 5, k: 2, tm: 0.1}
	eng := New(fl, col, 0.25)
	src := &fakeSource{fleet: fl}
	served := uint64(0)
	emit := func(q workload.Request) {
		served++
		if served%20 == 0 {
			col.Reject(q)
			fl.reject(q)
			return
		}
		col.Complete(q, q.Arrival, q.Arrival+0.1)
		fl.serve(q, q.Arrival, q.Arrival+0.1)
	}
	eng.Start(s, src, stats.NewRNG(seed), emit)
	if change != nil {
		change(s, fl)
	}
	// Stop short of the last tick boundary: Every fires at the horizon
	// too, and the tests count whole windows.
	s.RunUntil(float64(ticks)*60 - 30)
	return eng, src, col.Result("p", float64(ticks)*60)
}

func TestEngineProbeSchedule(t *testing.T) {
	eng, _, _ := runFake(t, 1, 80, nil)
	if eng.ProbeTicks+eng.FluidTicks != 80 {
		t.Fatalf("ticks: %d probe + %d fluid != 80", eng.ProbeTicks, eng.FluidTicks)
	}
	// Tick 0 probes and calibrates (≥550 completions ≥ MinCalibration);
	// from then on one tick in 8 probes: ticks 0, 8, …, 72 → 10 probes.
	if eng.ProbeTicks != 10 {
		t.Fatalf("probe ticks = %d, want 10", eng.ProbeTicks)
	}
}

func TestEngineCountsWithinTolerance(t *testing.T) {
	_, src, r := runFake(t, 1, 80, nil)
	offered := r.Accepted + r.Rejected
	if offered != src.tk.offered {
		t.Fatalf("offered %d, want %d — fluid ticks must conserve requests", offered, src.tk.offered)
	}
	// Exact behavior: 5% rejection, responses exactly 0.1.
	if rej := float64(r.Rejected) / float64(offered); math.Abs(rej-0.05) > 0.003 {
		t.Fatalf("rejection %v, want ≈0.05", rej)
	}
	if math.Abs(r.MeanResponse-0.1) > 0.002 {
		t.Fatalf("mean response %v, want ≈0.1", r.MeanResponse)
	}
	if r.Violations != 0 {
		t.Fatalf("violations %d, want 0 (responses are 0.1 < Ts 0.25)", r.Violations)
	}
}

// Hybrid runs are a pure function of the seed.
func TestEngineDeterministic(t *testing.T) {
	_, _, a := runFake(t, 7, 50, nil)
	_, _, b := runFake(t, 7, 50, nil)
	if !metrics.Equal(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	_, _, c := runFake(t, 8, 50, nil)
	if metrics.Equal(a, c) {
		t.Fatal("different seeds produced identical results — streams not seeded?")
	}
}

// A fleet transition forces the next ProbeOnChange ticks back to exact
// simulation and discards a capture spanning the change.
func TestEngineProbesAfterFleetChange(t *testing.T) {
	base, _, _ := runFake(t, 1, 40, nil)
	changed, _, _ := runFake(t, 1, 40, func(s *sim.Sim, fl *fakeFleet) {
		// Mid-window transition during a fluid stretch.
		s.ScheduleFunc(20*60+30, func(any) {
			fl.m = 6
			fl.rec.Record(trace.Event{T: s.Now(), Kind: trace.KindFleet, Count: fl.m})
		}, nil)
	})
	if changed.ProbeTicks < base.ProbeTicks+1 {
		t.Fatalf("fleet change added no probes: base %d, changed %d", base.ProbeTicks, changed.ProbeTicks)
	}
}

// Probe windows that capture too few completions must not become the
// calibration — the engine keeps probing instead of extrapolating noise.
// The fleet serves one request in ten and rejects the rest, so each
// 550–650-request window captures 55–65 completions, below
// minCalibration.
func TestEngineMinCalibrationKeepsProbing(t *testing.T) {
	s := sim.New()
	col := metrics.NewCollector(0.25)
	fl := &fakeFleet{m: 5, k: 2, tm: 0.1}
	eng := New(fl, col, 0.25)
	emitted := 0
	emit := func(q workload.Request) {
		emitted++
		if emitted%10 != 0 {
			col.Reject(q)
			fl.reject(q)
			return
		}
		col.Complete(q, q.Arrival, q.Arrival+0.1)
		fl.serve(q, q.Arrival, q.Arrival+0.1)
	}
	eng.Start(s, &fakeSource{fleet: fl}, stats.NewRNG(1), emit)
	s.RunUntil(20 * 60)
	if eng.FluidTicks != 0 {
		t.Fatalf("engine fast-forwarded %d ticks without a valid calibration", eng.FluidTicks)
	}
}
