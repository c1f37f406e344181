// Package mpc implements model-predictive fleet sizing by co-simulation:
// at every controller cycle the run snapshots itself, simulates each
// candidate fleet size a horizon ahead under a perturbed random stream,
// scores the simulated futures on VM cost, QoS violations, and boot
// churn, rewinds, and commits the cheapest candidate for real.
//
// The controller is an instance of the receding-horizon idea behind
// model-predictive control, with the paper's analytical queueing model
// replaced by the simulator itself as the predictor: whatever dynamics
// the run exhibits — boot delays, rejection under the buffer bound K,
// host failures, even the hybrid fluid engine's fast-forward ticks — are
// reproduced in the lookahead, because the lookahead IS the run,
// executed ahead of itself and then undone.
//
// Two properties keep this honest:
//
//   - Non-clairvoyance. Before each lookahead the whole RNG tree is
//     perturbed by a draw from a dedicated "mpc" substream, so the
//     controller optimizes against a plausible future sampled from the
//     workload's distribution, not against the exact arrivals the real
//     run will see. The same perturbation is shared by every candidate
//     in a cycle (common random numbers), so candidates differ only in
//     fleet size, not in luck.
//
//   - Invisibility. Snapshots draw nothing and schedule nothing; the
//     next cycle is scheduled only after the final rewind, so during a
//     lookahead no controller event sits in the queue. After the commit,
//     the real run's event order, random streams, and statistics are
//     bit-identical to a run that never looked ahead — only the
//     committed targets differ.
//
// The search over candidates is an exact branch-and-bound. The clipped
// committed size is scored first, then the other candidates in ascending
// order; the lowest score wins and equal scores go to the smaller fleet.
// Each candidate runs in lookaheadSlices equal slices of the horizon, and
// before the first slice and after every slice a lower bound on its final
// score is compared with the incumbent's. A candidate whose bound already
// loses under the tie rule is abandoned there, so a pruned candidate has
// no final score. The bound is the score accrued so far plus the
// VM-second cost the rest of the horizon must still add:
//
//   - The accrued score never decreases over a lookahead, exactly so in
//     float64: its counts and the VM-seconds integral only grow, and
//     every operation combining them rounds monotonically.
//   - Until the next SetTarget the fleet keeps at least
//     Provisioner.CommittedFloor instances running (the committed size
//     without a fault model, 0 with one), so the VM-seconds integral
//     grows at least that fast. That term is compared with a margin that
//     covers float64 rounding at the magnitude of the cumulative
//     VM-seconds; a candidate inside the margin runs to the end.
//
// A candidate is therefore pruned only when its full lookahead would have
// lost, and the committed target is the one exhaustive search picks.
//
// One caveat: an external trace recorder is I/O and cannot be rewound,
// so tracing an MPC run records lookahead events alongside real ones —
// for a pruned candidate, only the part of its lookahead that ran.
package mpc

import (
	"math"
	"strconv"

	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// World is the co-simulation surface the controller drives: the
// fully-assembled run, able to freeze itself, rewind, decorrelate its
// random streams, and report the cumulative quantities the objective
// differences. experiment.World implements it.
type World interface {
	// Snapshot pushes the current complete run state.
	Snapshot()
	// Restore rewinds to the innermost snapshot without consuming it.
	Restore()
	// Release discards the innermost snapshot.
	Release()
	// Perturb decorrelates every random stream from the real future.
	Perturb(u uint64)
	// Objective reports cumulative QoS violations, rejections,
	// crash-lost requests, and VM-seconds through t: the integral of the
	// running-instance count, which counts booting, active and draining
	// instances.
	Objective(t float64) (violated, rejected, lost uint64, vmSeconds float64)
}

// WorldBinder is implemented by controllers that need the assembled
// world; the experiment layer calls BindWorld after wiring a run,
// handing over the world and a dedicated lookahead RNG substream.
type WorldBinder interface {
	BindWorld(w World, lookahead *stats.RNG)
}

// Controller sizes the fleet by receding-horizon co-simulation. It
// decides every Horizon/2 seconds, so consecutive lookaheads overlap by
// half, and scores a candidate as the VM-seconds its lookahead accrues,
// plus one VM-second per QoS violation, rejection or crash-lost request,
// plus the provisioner's boot delay for each instance it would boot above
// the committed fleet: a scale-up risks arriving after the burst it
// answers, so one spin-up is priced at one idle VM for one boot.
type Controller struct {
	// Horizon is how far ahead each candidate future is simulated,
	// in seconds. Required (panics at Attach if <= 0).
	Horizon float64

	// Candidates caps how many fleet sizes are tried per cycle. The set
	// spreads geometrically around the currently committed size:
	// {0, ±1, ±2, ±4, ...} offsets, clipped to [1, MaxVMs]. Default 5.
	// The clipped committed size is evaluated first, then the others in
	// ascending order. The lowest score wins, equal scores go to the
	// smaller fleet, and a candidate abandoned because it provably cannot
	// win has no final score.
	Candidates int

	bootDelay float64 // the provisioner's boot delay, the price of one boot
	world     World
	la        *stats.RNG
	s         *sim.Sim
	p         *provision.Provisioner
	cands     []int

	// inSim marks lookahead execution. The next cycle is scheduled only
	// after the final restore, so no controller event can fire inside a
	// lookahead; the flag is a cheap guard against that invariant ever
	// breaking (e.g. a future caller running cycles manually).
	inSim bool
}

// Name implements provision.Controller.
func (c *Controller) Name() string {
	return "MPC-" + strconv.FormatFloat(c.Horizon, 'g', -1, 64)
}

// BindWorld implements WorldBinder.
func (c *Controller) BindWorld(w World, lookahead *stats.RNG) {
	c.world = w
	c.la = lookahead
}

// Attach implements provision.Controller: it resolves the default
// candidate count and schedules the first sizing cycle at time zero.
func (c *Controller) Attach(s *sim.Sim, p *Provisioner) {
	c.bind(s, p)
	s.AtFunc(0, fireCycle, c)
}

// bind resolves a zero candidate count to its default and wires the
// controller to the run's simulator and provisioner.
func (c *Controller) bind(s *sim.Sim, p *Provisioner) {
	if c.Horizon <= 0 {
		panic("mpc: Controller.Horizon must be positive")
	}
	if c.Candidates <= 0 {
		c.Candidates = 5
	}
	c.s, c.p = s, p
	c.bootDelay = p.Config().BootDelay
}

// Provisioner aliases provision.Provisioner so Attach matches the
// provision.Controller interface without a circular import.
type Provisioner = provision.Provisioner

// fireCycle runs one sizing cycle. The payload is the controller itself
// and is never mutated between schedule and fire, so reusing it across
// cycles is snapshot-safe.
func fireCycle(a any) {
	a.(*Controller).runCycle()
}

// lookaheadSlices is how many equal slices of the horizon each candidate
// future runs in; its pruning bound is checked before the first slice
// and after each one. Consecutive RunUntil bounds are invisible to the
// run, so slicing a lookahead leaves its final score bit-identical.
const lookaheadSlices = 60

// floorMargin is the relative margin the floor term of the pruning bound
// is compared with. One float64 rounding is off by at most 2^-53 of its
// magnitude; 2^-30 covers millions of VM-seconds accumulation steps
// within one lookahead, far more than any fleet makes.
const floorMargin = 0x1p-30

// objective is the cumulative state World.Objective reports at one
// instant.
type objective struct {
	violated, rejected, lost uint64
	vmSeconds                float64
}

// runCycle snapshots the run, searches the candidate fleet sizes by
// co-simulating each up to Horizon seconds ahead, commits the cheapest,
// and schedules the next cycle.
func (c *Controller) runCycle() {
	if c.inSim {
		panic("mpc: controller cycle fired inside its own lookahead")
	}
	if c.world == nil {
		panic("mpc: controller not bound to a world; run it through the experiment layer")
	}
	t := c.s.Now()
	// Drawn before the snapshot, so the perturbation seed is part of the
	// real timeline and survives the rewinds below.
	u := c.la.Uint64()
	base := c.p.Committed()
	c.candidates(base)

	var o0 objective
	o0.violated, o0.rejected, o0.lost, o0.vmSeconds = c.world.Objective(t)
	c.world.Snapshot()
	// The first candidate runs against an infinite incumbent, which no
	// finite bound beats, so it always runs to the end.
	best, bestScore := 0, math.Inf(1)
	for _, m := range c.cands {
		c.inSim = true
		c.world.Perturb(u)
		c.p.SetTarget(m)
		score, done := c.lookahead(o0, t, m, max(0, m-base), best, bestScore)
		c.world.Restore()
		c.inSim = false
		if done && (score < bestScore || score == bestScore && m < best) {
			best, bestScore = m, score
		}
	}
	c.world.Release()
	c.p.SetTarget(best)
	// Scheduled only now, after the final restore: during lookaheads the
	// queue must hold no controller event, or a lookahead would recurse
	// into its own sizing cycles.
	c.s.AtFunc(t+c.Horizon/2, fireCycle, c)
}

// lookahead runs candidate m, already committed at cycle start t, to
// t+Horizon in lookaheadSlices slices and returns its score. It abandons
// the candidate with done false as soon as a lower bound on that score
// cannot beat the incumbent (best, bestScore) under the tie rule.
func (c *Controller) lookahead(o0 objective, t float64, m, boot, best int, bestScore float64) (score float64, done bool) {
	end := t + c.Horizon
	floor := float64(c.p.CommittedFloor())
	margin := floorMargin * (o0.vmSeconds + 2*bestScore)
	tau := t
	for k := 1; ; k++ {
		score = c.partialScore(o0, tau, boot)
		if tau == end {
			return score, true
		}
		if score > bestScore || score == bestScore && m > best ||
			score+floor*(end-tau)-margin > bestScore {
			return score, false
		}
		tau = end
		if k < lookaheadSlices {
			tau = t + c.Horizon*float64(k)/lookaheadSlices
		}
		c.s.RunUntil(tau)
	}
}

// partialScore is the objective a candidate accrued from the cycle start
// (o0) through tau — VM-seconds plus one per violation, rejection and
// lost request — with the boot delay charged for each of the boot
// instances it launched above the committed fleet. At tau = t+Horizon it
// is the candidate's score; before that it is a lower bound on it (see
// the package doc).
func (c *Controller) partialScore(o0 objective, tau float64, boot int) float64 {
	v, r, l, vm := c.world.Objective(tau)
	return (vm - o0.vmSeconds) +
		float64((v-o0.violated)+(r-o0.rejected)+(l-o0.lost)) +
		c.bootDelay*float64(boot)
}

// candidates fills c.cands with up to c.Candidates fleet sizes spread
// around base: offsets 0, +1, -1, +2, -2, +4, -4, ... clipped to
// [1, MaxVMs], deduplicated. The clipped base comes first, the rest
// ascending — the order runCycle evaluates them in.
func (c *Controller) candidates(base int) {
	maxVMs := c.p.Config().MaxVMs
	c.cands = c.cands[:0]
	add := func(m int) {
		if m < 1 {
			m = 1
		}
		if maxVMs > 0 && m > maxVMs {
			m = maxVMs
		}
		for _, have := range c.cands {
			if have == m {
				return
			}
		}
		c.cands = append(c.cands, m)
	}
	add(base)
	for off := 1; len(c.cands) < c.Candidates; off *= 2 {
		add(base + off)
		if len(c.cands) >= c.Candidates {
			break
		}
		add(base - off)
		if maxVMs > 0 && base+off >= maxVMs && base-off <= 1 {
			break
		}
	}
	// Insertion sort behind the base: the set is tiny and nearly ordered.
	for i := 2; i < len(c.cands); i++ {
		for j := i; j > 1 && c.cands[j] < c.cands[j-1]; j-- {
			c.cands[j], c.cands[j-1] = c.cands[j-1], c.cands[j]
		}
	}
}
