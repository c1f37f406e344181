package mpc

import "vmprov/internal/sim"

// Exhaustive is the reference for Controller's branch-and-bound search:
// the same knobs, defaults, objective and candidate set, but every
// candidate runs to the full horizon in one RunUntil before the cheapest
// is committed, ties going to the smaller fleet. Pruning must never
// change what it commits.
type Exhaustive struct{ Controller }

// Attach implements provision.Controller.
func (e *Exhaustive) Attach(s *sim.Sim, p *Provisioner) {
	e.bind(s, p)
	s.AtFunc(0, fireExhaustive, e)
}

func fireExhaustive(a any) { a.(*Exhaustive).runCycle() }

// runCycle co-simulates every candidate Horizon seconds ahead, commits
// the cheapest, and schedules the next cycle.
func (e *Exhaustive) runCycle() {
	c := &e.Controller
	t := c.s.Now()
	u := c.la.Uint64()
	base := c.p.Committed()
	c.candidates(base)

	v0, r0, l0, vm0 := c.world.Objective(t)
	c.world.Snapshot()
	best, bestScore := 0, 0.0
	for i, m := range c.cands {
		c.world.Perturb(u)
		c.p.SetTarget(m)
		c.s.RunUntil(t + c.Horizon)
		v1, r1, l1, vm1 := c.world.Objective(t + c.Horizon)
		c.world.Restore()
		score := (vm1 - vm0) +
			float64((v1-v0)+(r1-r0)+(l1-l0)) +
			c.bootDelay*float64(max(0, m-base))
		if i == 0 || score < bestScore || score == bestScore && m < best {
			best, bestScore = m, score
		}
	}
	c.world.Release()
	c.p.SetTarget(best)
	c.s.AtFunc(t+c.Horizon/2, fireExhaustive, e)
}
