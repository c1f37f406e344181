package composite

import (
	"math"
	"testing"

	"vmprov/internal/provision"
	"vmprov/internal/queueing"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// stageCfg builds a stage QoS block with the given response budget and
// nominal service time.
func stageCfg(ts, tr float64, maxVMs int) provision.Config {
	return provision.Config{
		QoS:       provision.QoS{Ts: ts, MaxRejection: 0, RejectionTol: 1e-3, MinUtilization: 0.8},
		NominalTr: tr,
		MaxVMs:    maxVMs,
	}
}

// driver feeds Poisson arrivals with fixed per-stage service times into a
// pipeline.
func drive(s *sim.Sim, p *Pipeline, rate float64, services []float64, horizon float64, seed uint64) {
	r := stats.NewRNG(seed)
	var next func()
	next = func() {
		if s.Now() >= horizon {
			return
		}
		svc := make([]float64, len(services))
		for i, v := range services {
			svc[i] = v * (1 + 0.1*r.Float64())
		}
		p.Submit(svc, 0, 0)
		s.Schedule(r.ExpFloat64()/rate, next)
	}
	s.Schedule(r.ExpFloat64()/rate, next)
}

func TestTwoStagePipelineServesEndToEnd(t *testing.T) {
	s := sim.New()
	p := New(s, nil, 5, []Stage{
		{Name: "web", Cfg: stageCfg(2, 1, 50), Controller: &provision.Static{M: 10}},
		{Name: "app", Cfg: stageCfg(3, 1.5, 50), Controller: &provision.Static{M: 15}},
	})
	drive(s, p, 4, []float64{1, 1.5}, 5000, 1)
	res := p.Finish(6000)

	if res.Served == 0 {
		t.Fatal("nothing served")
	}
	if res.DropRate > 0.02 {
		t.Fatalf("drop rate %.4f, want ≈0 with ample fleets", res.DropRate)
	}
	// End-to-end mean ≈ sum of stage means, and at least the total
	// service time (≈ 1.05 + 1.575).
	if res.EndToEndMean < 2.6 {
		t.Fatalf("end-to-end mean %.3f below total service time", res.EndToEndMean)
	}
	sum := res.Stages[0].MeanResponse + res.Stages[1].MeanResponse
	if math.Abs(res.EndToEndMean-sum) > 0.05*sum {
		t.Fatalf("end-to-end %.3f should equal stage sum %.3f", res.EndToEndMean, sum)
	}
	if res.Offered != res.Served+inFlightOrDropped(res) {
		t.Fatalf("conservation broken: %+v", res)
	}
}

// inFlightOrDropped returns offered − served as drops plus still-in-flight.
func inFlightOrDropped(r Result) uint64 {
	var drops uint64
	for _, d := range r.StageDrops {
		drops += d
	}
	return drops + (r.Offered - r.Served - drops)
}

// A recorder attached to a stage joins the pipeline's own observer
// instead of replacing it: the ring sees the stage's lifecycle, and the
// pipeline still chains and drops exactly as it does untraced.
func TestStageTracerKeepsPipeline(t *testing.T) {
	run := func(ring *trace.Ring) Result {
		s := sim.New()
		p := New(s, nil, 10, []Stage{
			{Name: "front", Cfg: stageCfg(2, 1, 50), Controller: &provision.Static{M: 20}},
			{Name: "storage", Cfg: stageCfg(4, 2, 50), Controller: &provision.Static{M: 2}},
		})
		if ring != nil {
			p.Stage(0).SetTracer(ring)
		}
		drive(s, p, 4, []float64{1, 2}, 3000, 2)
		return p.Finish(5000)
	}
	plain := run(nil)
	ring := trace.NewRing(1 << 16)
	traced := run(ring)
	if traced.Served != plain.Served || traced.StageDrops[0] != plain.StageDrops[0] ||
		traced.StageDrops[1] != plain.StageDrops[1] {
		t.Fatalf("stage tracer changed the pipeline: served %d vs %d, drops %v vs %v",
			traced.Served, plain.Served, traced.StageDrops, plain.StageDrops)
	}
	if plain.Served == 0 || plain.StageDrops[1] == 0 {
		t.Fatalf("rig exercises neither chaining nor drops: %+v", plain)
	}
	// The front stage drains well before the horizon: every request it
	// dispatched has completed.
	front := traced.Stages[0]
	accepts, completes := len(ring.Filter(trace.KindAccept)), len(ring.Filter(trace.KindComplete))
	if uint64(accepts) != front.Accepted || uint64(completes) != front.Accepted {
		t.Fatalf("ring saw %d accepts and %d completions, stage 0 served %d", accepts, completes, front.Accepted)
	}
}

func TestBottleneckStageDropsAndShields(t *testing.T) {
	s := sim.New()
	p := New(s, nil, 10, []Stage{
		{Name: "front", Cfg: stageCfg(2, 1, 50), Controller: &provision.Static{M: 20}},
		{Name: "storage", Cfg: stageCfg(4, 2, 50), Controller: &provision.Static{M: 2}},
	})
	// Offered 8 Erlangs of storage work on 2 servers: heavy overload.
	drive(s, p, 4, []float64{1, 2}, 3000, 2)
	res := p.Finish(5000)
	if res.StageDrops[1] == 0 {
		t.Fatal("overloaded storage stage dropped nothing")
	}
	if res.StageDrops[0] != 0 {
		t.Fatalf("front stage dropped %d with ample capacity", res.StageDrops[0])
	}
	if res.DropRate < 0.3 {
		t.Fatalf("drop rate %.3f, want substantial at 4× overload", res.DropRate)
	}
	// Served requests still respect per-stage queue bounds: end-to-end
	// below the sum of stage worst cases (2·1.1 + 2·2.2).
	if res.EndToEndMean > 2.2+4.4 {
		t.Fatalf("end-to-end %.3f exceeds worst-case bound", res.EndToEndMean)
	}
}

func TestPipelineAdaptiveStage(t *testing.T) {
	s := sim.New()
	front := stageCfg(2, 1, 100)
	back := stageCfg(3, 1.5, 100)
	p := New(s, nil, 5, []Stage{
		{Name: "front", Cfg: front, Controller: &provision.Adaptive{
			Analyzer: &workload.WindowAnalyzer{Interval: 100, Windows: 3, Safety: 1.4},
		}},
		{Name: "back", Cfg: back, Controller: &provision.Adaptive{
			Analyzer: &workload.WindowAnalyzer{Interval: 100, Windows: 3, Safety: 1.4},
		}},
	})
	// Warm-up: window analyzers start at zero fleet; the first windows
	// reject. Steady state must then track ≈ 6 and ≈ 9 Erlangs.
	drive(s, p, 6, []float64{1, 1.5}, 4000, 3)
	res := p.Finish(5000)
	if res.Served == 0 {
		t.Fatal("adaptive pipeline served nothing")
	}
	f0 := res.Stages[0]
	f1 := res.Stages[1]
	if f0.MaxInstances < 6 || f0.MaxInstances > 14 {
		t.Fatalf("front fleet peaked at %d, want ≈8", f0.MaxInstances)
	}
	if f1.MaxInstances < 9 || f1.MaxInstances > 20 {
		t.Fatalf("back fleet peaked at %d, want ≈12", f1.MaxInstances)
	}
	// After warm-up the pipeline should serve the bulk of offered load.
	if float64(res.Served)/float64(res.Offered) < 0.9 {
		t.Fatalf("served only %d of %d", res.Served, res.Offered)
	}
}

// tandem is a series of fleets a request traverses in order — the
// analytic reference the pipeline's simulated end-to-end response and
// drop rate are checked against. Under the same independence
// approximations as queueing.Fleet, the end-to-end response is the sum
// of stage responses and a request survives only if every stage admits
// it.
type tandem []queueing.Fleet

// ResponseTime returns the end-to-end expected response of a request
// accepted at every stage.
func (t tandem) ResponseTime() float64 {
	var sum float64
	for _, f := range t {
		sum += f.ResponseTime()
	}
	return sum
}

// SystemRejection returns the probability a request is dropped at some
// stage: 1 − Π(1 − rejᵢ).
func (t tandem) SystemRejection() float64 {
	surv := 1.0
	for _, f := range t {
		surv *= 1 - f.SystemRejection()
	}
	return 1 - surv
}

// Throughput returns the rate of requests surviving all stages, given the
// first stage's offered rate.
func (t tandem) Throughput() float64 {
	if len(t) == 0 {
		return 0
	}
	return t[0].Lambda * (1 - t.SystemRejection())
}

func TestTandemModelMatchesPipeline(t *testing.T) {
	// Analytic tandem vs simulated pipeline at a comfortable operating
	// point (exponential-ish service via jitter is close enough for a
	// coarse check).
	s := sim.New()
	p := New(s, nil, 10, []Stage{
		{Name: "a", Cfg: stageCfg(2, 1, 50), Controller: &provision.Static{M: 8}},
		{Name: "b", Cfg: stageCfg(2, 1, 50), Controller: &provision.Static{M: 8}},
	})
	drive(s, p, 5, []float64{1, 1}, 20000, 4)
	res := p.Finish(21000)

	model := tandem{
		{Lambda: 5, Tm: 1.05, K: 2, M: 8},
		{Lambda: 5, Tm: 1.05, K: 2, M: 8},
	}
	if model.SystemRejection() > 0.01 && res.DropRate > 0.05 {
		t.Fatalf("both model and sim should be nearly loss-free: model %.4f sim %.4f",
			model.SystemRejection(), res.DropRate)
	}
	// Response: model assumes M/M/1/k per stage; near-deterministic
	// service waits less, so the simulated mean must be between the pure
	// service floor and the model's prediction.
	if res.EndToEndMean < 2.1 || res.EndToEndMean > model.ResponseTime() {
		t.Fatalf("end-to-end %.3f outside [2.1, %.3f]", res.EndToEndMean, model.ResponseTime())
	}
}

func TestTandemAlgebra(t *testing.T) {
	a := queueing.Fleet{Lambda: 10, Tm: 0.1, K: 2, M: 2}
	b := queueing.Fleet{Lambda: 10, Tm: 0.1, K: 2, M: 2}
	td := tandem{a, b}
	if got, want := td.ResponseTime(), a.ResponseTime()+b.ResponseTime(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tandem response %v, want %v", got, want)
	}
	ra := a.SystemRejection()
	if got, want := td.SystemRejection(), 1-(1-ra)*(1-ra); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tandem rejection %v, want %v", got, want)
	}
	if got := td.Throughput(); math.Abs(got-10*(1-td.SystemRejection())) > 1e-12 {
		t.Fatalf("tandem throughput %v", got)
	}
	if (tandem{}).Throughput() != 0 {
		t.Fatal("empty tandem throughput should be 0")
	}
}

func TestPipelineValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty pipeline did not panic")
			}
		}()
		New(sim.New(), nil, 1, nil)
	}()
	s := sim.New()
	p := New(s, nil, 5, []Stage{
		{Name: "only", Cfg: stageCfg(2, 1, 10), Controller: &provision.Static{M: 1}},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched service vector did not panic")
		}
	}()
	p.Submit([]float64{1, 2}, 0, 0)
}
