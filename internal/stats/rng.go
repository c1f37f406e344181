// Package stats provides the random-variate generation and statistical
// summarization substrate used by the simulator: seeded, splittable random
// number streams, the probability distributions required by the paper's
// workload models (Weibull, exponential, uniform, normal, ...), and
// streaming summary statistics (Welford accumulators, histograms,
// time-weighted averages, reservoir quantiles).
//
// All samplers are deterministic functions of an explicit *RNG so that
// simulation replications are reproducible from a single seed and
// independent substreams can be derived per model component.
//
// Weibull draws, the scientific workload's every job gap, size and
// off-peak count, go through Pow, which returns math.Pow's result bit
// for bit in about half the time: for a normal positive x and an
// exponent strictly between 0 and 1 other than 0.5, math.Pow always
// takes the same Exp/Log path, and Pow computes that path without the
// special-case dispatch and the power-of-two bookkeeping, which for
// such arguments is exact. Every other argument goes to math.Pow. Pow's
// doc comment gives the argument; TestPowMatchesMathPow and FuzzPow
// check it.
package stats

import (
	"hash/fnv"
	"math/rand/v2"
)

// RNG is a seeded pseudo-random number stream. It wraps a PCG generator from
// math/rand/v2 and adds named substream derivation so that each simulation
// component (arrival process, service times, ...) can draw from an
// independent stream derived from one experiment seed.
//
// Every RNG remembers the substreams Split derived from it, so the root
// stream of a replication can snapshot, restore, or perturb the entire
// stream tree in one call (see Snapshot/Restore/Perturb). rand/v2's Rand
// holds no state beyond its source, so a PCG value copy is an exact
// stream snapshot.
type RNG struct {
	src  *rand.Rand
	pcg  *rand.PCG // the underlying generator, retained for state copies
	seed uint64    // retained so Split is a pure function of (seed, label)
	kids []*RNG    // substreams in derivation order, for tree snapshots
}

// NewRNG returns a stream seeded with the given 64-bit seed.
func NewRNG(seed uint64) *RNG {
	// Mix the seed into both PCG words so nearby seeds yield unrelated
	// streams.
	pcg := rand.NewPCG(splitmix(seed), splitmix(seed^0x9e3779b97f4a7c15))
	return &RNG{
		src:  rand.New(pcg),
		pcg:  pcg,
		seed: seed,
	}
}

// Split derives an independent substream identified by label. Streams
// derived with distinct labels from the same parent are decorrelated;
// deriving the same label twice yields identical streams, regardless of how
// many variates were drawn from the parent in between.
func (r *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	kid := NewRNG(splitmix(r.seed ^ h.Sum64()))
	r.kids = append(r.kids, kid)
	return kid
}

// RNGSnap captures the instantaneous state of a stream tree: one PCG
// value per node in derivation (pre-)order, plus each node's child count
// at capture time so a restore can realign even if substreams were
// derived after the snapshot. The zero value is ready to use; the slices
// are reused across snapshots, so one pooled RNGSnap costs O(streams),
// not O(snapshots).
type RNGSnap struct {
	states []rand.PCG
	kids   []int32
}

// Snapshot records the current state of r and of every substream ever
// derived from it (transitively) into snap, reusing snap's buffers.
// Snapshot draws nothing from any stream.
func (r *RNG) Snapshot(snap *RNGSnap) {
	snap.states = snap.states[:0]
	snap.kids = snap.kids[:0]
	r.capture(snap)
}

func (r *RNG) capture(snap *RNGSnap) {
	snap.states = append(snap.states, *r.pcg)
	snap.kids = append(snap.kids, int32(len(r.kids)))
	for _, k := range r.kids {
		k.capture(snap)
	}
}

// Restore rewinds r and its substream tree to the states captured by
// Snapshot. Substreams derived after the snapshot keep their current
// state: nothing references them from restored component state, and a
// later Split of the same label re-derives the identical stream, so they
// are inert.
func (r *RNG) Restore(snap *RNGSnap) {
	r.restoreAt(snap, 0)
}

func (r *RNG) restoreAt(snap *RNGSnap, i int) int {
	*r.pcg = snap.states[i]
	n := int(snap.kids[i])
	i++
	for k := 0; k < n; k++ {
		i = r.kids[k].restoreAt(snap, i)
	}
	return i
}

// Perturb re-seeds r and its entire substream tree from a mix of each
// stream's own derivation seed and the perturbation value u: every stream
// jumps to a decorrelated but fully deterministic state. Model-predictive
// lookahead uses this so a co-simulated future is a plausible draw from
// the workload's distribution rather than a clairvoyant replay of the
// real run's exact future; the caller restores the real states afterward.
func (r *RNG) Perturb(u uint64) {
	s := splitmix(r.seed ^ u)
	r.pcg.Seed(splitmix(s), splitmix(s^0x9e3779b97f4a7c15))
	for _, k := range r.kids {
		k.Perturb(u)
	}
}

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform integer in [0, n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// ExpFloat64 returns a unit-rate exponential variate.
func (r *RNG) ExpFloat64() float64 { return r.src.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// splitmix is the SplitMix64 finalizer, used for seed mixing.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
