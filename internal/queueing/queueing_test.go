package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func within(t *testing.T, got, want, relTol float64, what string) {
	t.Helper()
	denom := math.Abs(want)
	if denom < 1e-12 {
		denom = 1
	}
	if math.Abs(got-want)/denom > relTol {
		t.Fatalf("%s: got %v, want %v (rel tol %v)", what, got, want, relTol)
	}
}

// bruteMM1K computes the M/M/1/K state distribution directly from the
// unnormalized birth-death terms, as an oracle.
func bruteMM1K(lambda, mu float64, k int) []float64 {
	p := make([]float64, k+1)
	p[0] = 1
	sum := 1.0
	for n := 1; n <= k; n++ {
		p[n] = p[n-1] * lambda / mu
		sum += p[n]
	}
	for n := range p {
		p[n] /= sum
	}
	return p
}

func TestMM1KProbsAgainstBruteForce(t *testing.T) {
	cases := []MM1K{
		{Lambda: 0.5, Mu: 1, K: 2},
		{Lambda: 2, Mu: 1, K: 5},            // overloaded
		{Lambda: 7.84, Mu: 1 / 0.105, K: 2}, // paper web peak operating point
		{Lambda: 0.9, Mu: 1, K: 50},
	}
	for _, q := range cases {
		oracle := bruteMM1K(q.Lambda, q.Mu, q.K)
		for n := 0; n <= q.K; n++ {
			within(t, q.ProbN(n), oracle[n], 1e-9, "ProbN")
		}
		var l float64
		for n, pn := range oracle {
			l += float64(n) * pn
		}
		within(t, q.MeanNumber(), l, 1e-9, "MeanNumber")
		within(t, q.Blocking(), oracle[q.K], 1e-9, "Blocking")
	}
}

func TestMM1KRhoOne(t *testing.T) {
	q := MM1K{Lambda: 1, Mu: 1, K: 4}
	// At ρ=1 all K+1 states are equally likely.
	for n := 0; n <= 4; n++ {
		within(t, q.ProbN(n), 0.2, 1e-9, "uniform states at rho=1")
	}
	within(t, q.MeanNumber(), 2, 1e-9, "L at rho=1")
	within(t, q.Blocking(), 0.2, 1e-9, "blocking at rho=1")
}

func TestMM1KZeroLambda(t *testing.T) {
	q := MM1K{Lambda: 0, Mu: 2, K: 3}
	if q.Blocking() != 0 {
		t.Fatal("empty queue should never block")
	}
	within(t, q.ResponseTime(), 0.5, 1e-12, "idle response = service time")
	if q.ProbN(0) != 1 {
		t.Fatal("empty system should be in state 0")
	}
}

func TestMM1KConvergesToMM1(t *testing.T) {
	// For large K and ρ<1, M/M/1/K ≈ M/M/1.
	inf := MM1{Lambda: 0.7, Mu: 1}
	fin := MM1K{Lambda: 0.7, Mu: 1, K: 200}
	within(t, fin.MeanNumber(), inf.MeanNumber(), 1e-6, "L convergence")
	within(t, fin.ResponseTime(), inf.ResponseTime(), 1e-6, "W convergence")
	if fin.Blocking() > 1e-20 {
		t.Fatalf("blocking at K=200 should be negligible, got %v", fin.Blocking())
	}
}

func TestMM1KLittlesLaw(t *testing.T) {
	// L = λ_eff · W must hold exactly by construction; check the internal
	// consistency of throughput too.
	q := MM1K{Lambda: 3, Mu: 2, K: 4}
	within(t, q.Throughput()*q.ResponseTime(), q.MeanNumber(), 1e-12, "Little's law")
	within(t, q.Throughput(), 3*(1-q.Blocking()), 1e-12, "throughput")
}

func TestMM1KUtilizations(t *testing.T) {
	q := MM1K{Lambda: 1.4, Mu: 2, K: 3}
	within(t, q.OfferedUtilization(), 0.7, 1e-12, "offered")
	// Carried = 1 - P0 and also ρ(1-P_K) by flow balance.
	within(t, q.CarriedUtilization(), q.Rho()*(1-q.Blocking()), 1e-9, "carried via flow balance")
	if q.CarriedUtilization() >= q.OfferedUtilization() {
		t.Fatal("carried utilization must be below offered under blocking")
	}
}

// Property: blocking probability is within [0,1], increases with λ, and
// decreases with K.
func TestMM1KBlockingMonotoneProperty(t *testing.T) {
	f := func(lRaw, kRaw uint8) bool {
		lambda := 0.1 + float64(lRaw)/64.0 // 0.1 .. 4
		k := int(kRaw)%10 + 1
		q := MM1K{Lambda: lambda, Mu: 1, K: k}
		b := q.Blocking()
		if b < 0 || b > 1 {
			return false
		}
		moreLoad := MM1K{Lambda: lambda * 1.5, Mu: 1, K: k}
		if moreLoad.Blocking() < b-1e-12 {
			return false
		}
		moreRoom := MM1K{Lambda: lambda, Mu: 1, K: k + 1}
		return moreRoom.Blocking() <= b+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: response time of accepted requests is at most K service times
// (a request admitted to a FIFO M/M/1/K finds at most K−1 ahead of it).
func TestMM1KResponseBoundProperty(t *testing.T) {
	f := func(lRaw, kRaw uint8) bool {
		lambda := 0.05 + float64(lRaw)/32.0
		k := int(kRaw)%8 + 1
		q := MM1K{Lambda: lambda, Mu: 1, K: k}
		w := q.ResponseTime()
		return w >= 1/q.Mu-1e-12 && w <= float64(k)/q.Mu+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMM1Validate(t *testing.T) {
	if (MM1{Lambda: 2, Mu: 1}).Validate() == nil {
		t.Fatal("unstable M/M/1 should fail validation")
	}
	if err := (MM1{Lambda: 0.5, Mu: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMM1Formulas(t *testing.T) {
	q := MM1{Lambda: 0.5, Mu: 1}
	within(t, q.MeanNumber(), 1, 1e-12, "L")
	within(t, q.ResponseTime(), 2, 1e-12, "W")
	within(t, q.WaitTime(), 1, 1e-12, "Wq")
}

// erlangB is SharedBlocking with one slot per instance: the shared pool
// is then the M/M/m/m loss system, whose blocking is Erlang B.
func erlangB(a float64, m int) float64 {
	return Fleet{Lambda: a, Tm: 1, K: 1, M: m}.SharedBlocking()
}

func TestErlangBKnownValues(t *testing.T) {
	// Classic telephony value: a=2 Erlangs on c=2 → B = (2²/2)/(1+2+2) = 0.4.
	within(t, erlangB(2, 2), 0.4, 1e-12, "ErlangB(2,2)")
	// B(a, 1) = a/(1+a).
	within(t, erlangB(3, 1), 0.75, 1e-12, "ErlangB(3,1)")
	if erlangB(0, 5) != 0 {
		t.Fatal("zero offered load should never block")
	}
}

func TestMinServersErlangB(t *testing.T) {
	// Classic trunk table: 10 Erlangs at 1% blocking needs 18 trunks.
	if erlangB(10, 18) > 0.01 || erlangB(10, 17) <= 0.01 {
		t.Fatalf("Erlang-B blocking for 10 E: %v on 17 trunks, %v on 18; want 18 to be the fewest within 1%%",
			erlangB(10, 17), erlangB(10, 18))
	}
}

func TestMMCKReducesToMM1K(t *testing.T) {
	a := MMCK{Lambda: 1.5, Mu: 1, C: 1, K: 4}
	b := MM1K{Lambda: 1.5, Mu: 1, K: 4}
	within(t, a.Blocking(), b.Blocking(), 1e-9, "blocking")
}

func TestMMCKZeroLambda(t *testing.T) {
	if (MMCK{Lambda: 0, Mu: 1, C: 2, K: 4}).Blocking() != 0 {
		t.Fatal("empty M/M/c/K should never block")
	}
	if (Fleet{Lambda: 0, Tm: 1, K: 2, M: 2}).SharedBlocking() != 0 {
		t.Fatal("an idle shared pool should never block")
	}
}

// TestSharedBlockingMatchesMMCK checks the fleet's shared-pool blocking
// against the M/M/m/(m·K) station it models, computed independently in
// log space, from light load through overload (where SharedBlocking
// renormalizes its running sum) down to blocking probabilities near
// the bottom of the float64 range.
func TestSharedBlockingMatchesMMCK(t *testing.T) {
	const tm = 0.105
	points := 0
	for _, m := range []int{1, 2, 3, 5, 8, 13, 21, 50, 100, 250, 500, 1000} {
		for _, k := range []int{1, 2, 3, 5, 7} {
			for _, rho := range []float64{0.01, 0.1, 0.5, 0.8, 0.95, 1, 1.05, 1.5, 3} {
				f := Fleet{Lambda: rho * float64(m) / tm, Tm: tm, K: k, M: m}
				got := f.SharedBlocking()
				want := MMCK{Lambda: f.Lambda, Mu: 1 / tm, C: m, K: m * k}.Blocking()
				if math.Max(got, want) < 1e-290 {
					continue // both vanish below the range a relative error means anything in
				}
				points++
				if math.Abs(got-want) > 1e-9*want {
					t.Errorf("m=%d k=%d ρ=%v: SharedBlocking %v, M/M/m/(m·k) %v", m, k, rho, got, want)
				}
			}
		}
	}
	if points < 400 {
		t.Fatalf("only %d of the grid's points compared", points)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Fleet{
		{Lambda: -1, Tm: 1, K: 1, M: 1},
		{Lambda: 1, Tm: 0, K: 1, M: 1},
		{Lambda: 1, Tm: 1, K: 0, M: 1},
		{Lambda: 1, Tm: 1, K: 1, M: 0},
		{Lambda: 1, Tm: 1, K: 1, M: -2},
		{Lambda: math.NaN(), Tm: 1, K: 1, M: 1},
		{Lambda: 1, Tm: math.NaN(), K: 1, M: 1},
	}
	for _, f := range bad {
		if err := f.Validate(); !errors.Is(err, ErrParams) {
			t.Errorf("%#v: Validate() = %v, want ErrParams", f, err)
		}
	}
	if err := (Fleet{Lambda: 0, Tm: 0.105, K: 2, M: 1}).Validate(); err != nil {
		t.Errorf("valid fleet rejected: %v", err)
	}
}

func TestQueueSizeEquation1(t *testing.T) {
	// Paper operating points: web Ts=250ms, Tr=100ms → k=2;
	// scientific Ts=700s, Tr=300s → k=2.
	if k := QueueSize(0.250, 0.100); k != 2 {
		t.Fatalf("web k = %d, want 2", k)
	}
	if k := QueueSize(700, 300); k != 2 {
		t.Fatalf("scientific k = %d, want 2", k)
	}
	if k := QueueSize(1, 2); k != 1 {
		t.Fatalf("k must be at least 1, got %d", k)
	}
	if k := QueueSize(0, 1); k != 1 {
		t.Fatalf("degenerate Ts should give k=1, got %d", k)
	}
}

func TestFleetPaperWebPeak(t *testing.T) {
	// Web peak: λ=1200 req/s, Tm≈105 ms, k=2, m=153 (the paper's reported
	// peak fleet). The modeler must find this point acceptable: response
	// time below 250 ms, system rejection ≈ 0, utilization above 80%.
	f := Fleet{Lambda: 1200, Tm: 0.105, K: 2, M: 153}
	if w := f.ResponseTime(); w >= 0.250 {
		t.Fatalf("web peak response = %v, want < 0.250", w)
	}
	if rej := f.SystemRejection(); rej > 1e-9 {
		t.Fatalf("web peak system rejection = %v, want ≈0", rej)
	}
	if u := f.OfferedUtilization(); u < 0.80 {
		t.Fatalf("web peak utilization = %v, want ≥ 0.80", u)
	}
}

func TestFleetPaperSciOffPeak(t *testing.T) {
	// Scientific off-peak with the analyzer's inflated estimate
	// λ = 2.6·15.298·1.309/1800 and 13 instances (paper's reported
	// minimum): rejection ≈ 0 at the system level even though the
	// per-instance M/M/1/k blocks >20% — the distinction DESIGN.md §4
	// explains.
	lambda := 2.6 * 15.298 * 1.309 / 1800
	f := Fleet{Lambda: lambda, Tm: 315, K: 2, M: 13}
	if b := f.InstanceBlocking(); b < 0.1 {
		t.Fatalf("per-instance blocking should be substantial, got %v", b)
	}
	if rej := f.SystemRejection(); rej > 1e-6 {
		t.Fatalf("system rejection = %v, want ≈0", rej)
	}
	if w := f.ResponseTime(); w >= 700 {
		t.Fatalf("off-peak response = %v, want < 700", w)
	}
}

func TestFleetThroughputAndStation(t *testing.T) {
	f := Fleet{Lambda: 100, Tm: 0.1, K: 2, M: 20}
	st := f.Station()
	within(t, st.Lambda, 5, 1e-12, "per-station lambda")
	within(t, st.Mu, 10, 1e-12, "station mu")
	if f.Throughput() > f.Lambda {
		t.Fatal("throughput exceeds offered rate")
	}
	within(t, f.OfferedUtilization(), 0.5, 1e-12, "offered utilization")
}

// Property: system rejection is never above per-instance blocking and both
// lie in [0, 1]; adding instances reduces both.
func TestFleetRejectionProperty(t *testing.T) {
	f := func(lRaw, mRaw uint8) bool {
		lambda := 1 + float64(lRaw)
		m := int(mRaw)%50 + 1
		fl := Fleet{Lambda: lambda, Tm: 0.1, K: 2, M: m}
		b, r := fl.InstanceBlocking(), fl.SystemRejection()
		if b < 0 || b > 1 || r < 0 || r > 1 || r > b+1e-12 {
			return false
		}
		bigger := Fleet{Lambda: lambda, Tm: 0.1, K: 2, M: m + 1}
		return bigger.SystemRejection() <= r+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// MMCK is the c-server queue with total capacity K ≥ c (in service +
// waiting). Its blocking, computed in log space, is the independent
// reference for Fleet.SharedBlocking, the same M/M/m/(m·K) loss model
// computed by a renormalized running product.
type MMCK struct {
	Lambda float64
	Mu     float64
	C      int
	K      int
}

// probs returns the steady-state distribution P(N=n), n = 0..K, computed
// in a numerically stable way by normalizing unnormalized birth–death
// terms accumulated in log space relative to the largest term.
func (q MMCK) probs() []float64 {
	a := q.Lambda / q.Mu
	c := float64(q.C)
	logp := make([]float64, q.K+1)
	logp[0] = 0
	for n := 1; n <= q.K; n++ {
		servers := math.Min(float64(n), c)
		logp[n] = logp[n-1] + math.Log(a) - math.Log(servers)
	}
	maxLog := logp[0]
	for _, v := range logp[1:] {
		if v > maxLog {
			maxLog = v
		}
	}
	var sum float64
	p := make([]float64, q.K+1)
	for n, v := range logp {
		p[n] = math.Exp(v - maxLog)
		sum += p[n]
	}
	for n := range p {
		p[n] /= sum
	}
	return p
}

// Blocking returns P(N=K), the probability an arrival is rejected.
func (q MMCK) Blocking() float64 {
	if q.Lambda == 0 {
		return 0
	}
	p := q.probs()
	return p[q.K]
}
