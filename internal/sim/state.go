package sim

import (
	"math/rand/v2"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
)

// trialState is the mutable placement state one trial threads through
// its chunk barriers: the placer and the placement it builds, the node
// liveness mask, the request file sampler conditioned on that placement,
// and the arrival, fault and churn schedules with their per-trial RNG
// streams. Both owners of such state embed it — the batch engine's
// Runner (re-armed per trial, advanced at every pipeline chunk barrier)
// and the served mode's Snapshot (armed once per era, advanced by the
// daemon's mutator between request batches) — so the two run the same
// set-up and the same barrier code over the same seeded process.
type trialState struct {
	w      *World
	placer *cache.Placer
	p      *cache.Placement
	live   *cache.Liveness // nil under FaultsNone: every node is always live
	pop    dist.Popularity // request file sampler for p (see arm)

	heteroSt heteroState
	churnSt  churnState
	faultSt  faultState

	// The barrier's event streams, nil while their process is off. The
	// arrival schedule draws from the hetero stream that also drew the
	// trial's capacity profile.
	arrivalRNG, faultRNG, churnRNG *rand.Rand

	// One reseedRand per role: stream() reuses its receiver's generator,
	// so sharing one across roles would alias every stream to the last
	// reseed.
	place, hetero, fault, churn reseedRand

	// MissResample conditioning arenas (see arm).
	weights []float64
	cond    *dist.CustomBuilder
}

// init builds the state's placer and schedule arenas for w. The placer
// layout is hetero first (EnableTiles and EnableChurn size their arenas
// off the per-node slot budget EnableHetero installs), then the tile
// index, then — when mutable is set — the churn layout, whose slabs let
// churn and arrivals splice the placement in place.
func (ts *trialState) init(w *World, mutable bool) {
	ts.w = w
	ts.placer = cache.NewPlacer(w.g.N(), w.cfg.M, w.cfg.K)
	if w.cfg.Hetero != HeteroNone {
		ts.placer.EnableHetero(profileMaxCap(w.cfg.Profile, w.cfg.M))
		ts.heteroSt.init(w)
	}
	if w.tiling != nil {
		ts.placer.EnableTiles(w.tiling)
	}
	if mutable {
		ts.placer.EnableChurn()
	}
	if w.cfg.Churn != ChurnNone {
		ts.churnSt.init(w)
	}
	if w.cfg.Faults != FaultsNone {
		ts.live = cache.NewLiveness(w.g.N())
		if w.tiling != nil {
			// Share the index tiling so the tile walks can skip fully dead
			// tiles through the per-tile live counts.
			ts.live.BindTiling(w.tiling)
		}
	}
}

// arm starts trial t: it draws the capacity profile and vacancy pattern
// from the hetero stream (namespace 8), builds the placement from the
// trial's placement stream, conditions the file sampler on it, and
// rewinds the fault and churn schedules onto their trial streams. A
// process the world does not run never derives its stream, so each
// regime's zero value stays bit-identical to the engine without it.
func (ts *trialState) arm(t uint64) {
	w := ts.w
	if w.cfg.Hetero != HeteroNone {
		rng := ts.hetero.stream(w.heteroSrc, t)
		ts.heteroSt.arm(w, rng)
		ts.placer.SetHetero(ts.heteroSt.caps, ts.heteroSt.vacant)
		if w.cfg.Hetero == HeteroArrival {
			ts.arrivalRNG = rng
		}
	}
	ts.p = ts.placer.Place(w.placeProfile, w.cfg.PlacementMode, ts.place.stream(w.placeSrc, t))
	ts.pop = w.pop
	if w.cfg.MissPolicy == MissResample && ts.p.UncachedCount() > 0 {
		// Condition the request stream on files cached somewhere in the
		// network — invariant under churn, so one build serves the whole
		// trial. The table is rebuilt into the state's arenas: no
		// allocation after the first build, sampling bit-identically to a
		// fresh dist.NewCustom.
		if ts.weights == nil {
			ts.weights = make([]float64, w.cfg.K)
			ts.cond = dist.NewCustomBuilder(w.cfg.K)
		} else {
			clear(ts.weights)
		}
		for _, j := range ts.p.CachedFiles() {
			ts.weights[j] = w.pop.P(int(j))
		}
		ts.pop = ts.cond.Build(ts.weights, w.condName)
	}
	if ts.live != nil {
		ts.live.Reset()
		ts.faultSt.reset()
		ts.faultRNG = ts.fault.stream(w.faultSrc, t)
	}
	if w.cfg.Churn != ChurnNone {
		ts.churnSt.reset()
		ts.churnRNG = ts.churn.stream(w.churnSrc, t)
	}
}

// advance is the chunk barrier: it applies the arrival, fault and churn
// schedules accrued by c elapsed requests — in that order, which is part
// of the seeded process — and counts their events into res. loadOf reads
// a node's load at its crash instant for Result.DeadLoad; nil skips that
// account (the served mode, whose loads live in per-connection contexts
// rather than one engine vector).
func (ts *trialState) advance(c int, loadOf func(int32) int, res *Result) {
	if ts.arrivalRNG != nil {
		ts.applyArrivals(c, res)
	}
	if ts.faultRNG != nil {
		ts.applyFaults(c, loadOf, res)
	}
	if ts.churnRNG != nil {
		ts.applyChurn(c, res)
	}
}

// bind returns strat bound to the state's placement and liveness mask:
// rebound in place when it supports rebinding (all built-ins do), built
// fresh when strat is nil or does not. Binding a nil mask restores the
// liveness-blind draw sequences.
func (ts *trialState) bind(strat core.Strategy) core.Strategy {
	if rb, ok := strat.(core.Rebindable); ok {
		rb.Rebind(ts.p)
	} else {
		strat = buildStrategy(ts.w.cfg, ts.w.g, ts.p)
	}
	if la, ok := strat.(core.LivenessAware); ok {
		la.SetLiveness(ts.live)
	}
	return strat
}
