package sim

import (
	"math/rand/v2"

	"repro/internal/cache"
)

// The fault phase of the request pipeline (robustness regime): after a
// chunk of requests is assigned and accounted, the node liveness mask
// mutates before the next chunk is generated — exactly the churn
// discipline, so strategies never observe a half-applied failure and
// every candidate enumeration sees a consistent mask.
//
// Crash and recovery events are scheduled by fractional credit
// accumulators (FaultRate and RecoverRate expected events per request,
// exact over the trial) and drawn from a dedicated per-trial fault
// stream (xrand namespace 7), making the failure schedule a seeded
// process independent of the placement, request and churn streams:
// FaultsNone never derives the stream and stays bit-identical to the
// fault-free engine, and the schedule itself is invariant across
// Streams, Index, Workers and Strategy (pinned by
// TestFaultScheduleIndexInvariant).
//
//   - FaultsCrash kills a uniform live node per crash event and revives
//     a uniform dead node per recovery event (MTTR-style re-admission);
//     draws are O(1) through the liveness permutation.
//   - FaultsRegional kills every live node of a uniform tile-aligned
//     region (the World's regionTiling failure domains, regionSize), and
//     revives every dead node of a uniform region — correlated failures
//     with the same O(1)-per-node cost.
//
// An event that finds nothing to kill (no live node, or a fully dead
// region) or nothing to revive is dropped and counted in
// Result.FaultSkipped. Load carried by a node at the instant it crashes
// is accounted into Result.DeadLoad — work the failure stranded.
//
// Like churn, the schedule state lives in faultState, part of the
// trialState both owners of mutable liveness state share: the batch
// engine's Runner and the served mode's sim.Snapshot (see state.go,
// snapshot.go, internal/serve).

// faultState is the fault-schedule state of one liveness mask: the
// fractional crash and recovery event credits carried between
// applications.
type faultState struct {
	crashCredit   float64
	recoverCredit float64
}

// reset zeroes both event credits (the trial-start state).
func (fs *faultState) reset() { fs.crashCredit, fs.recoverCredit = 0, 0 }

// applyFaults executes the fault schedule accrued by c elapsed requests
// against the state's liveness mask, counting outcomes into res. Crash
// events drain before recovery events within an application — the order
// is part of the seeded process frozen by the fault golden matrix.
// loadOf reads a node's load at its crash instant for the DeadLoad
// account; nil skips that account (see trialState.advance).
func (ts *trialState) applyFaults(c int, loadOf func(int32) int, res *Result) {
	w, fs := ts.w, &ts.faultSt
	fs.crashCredit += w.cfg.FaultRate * float64(c)
	fs.recoverCredit += w.cfg.RecoverRate * float64(c)
	for ; fs.crashCredit >= 1; fs.crashCredit-- {
		crashEvent(w, ts.live, ts.faultRNG, loadOf, res)
	}
	for ; fs.recoverCredit >= 1; fs.recoverCredit-- {
		recoverEvent(w, ts.live, ts.faultRNG, res)
	}
}

// crashEvent executes one crash: a uniform live node (FaultsCrash) or
// every live node of a uniform region (FaultsRegional).
func crashEvent(w *World, lv *cache.Liveness, rng *rand.Rand, loadOf func(int32) int, res *Result) {
	switch w.cfg.Faults {
	case FaultsCrash:
		if lv.LiveCount() == 0 {
			res.FaultSkipped++
			return
		}
		u := lv.LiveAt(rng.IntN(lv.LiveCount()))
		if loadOf != nil {
			res.DeadLoad += loadOf(u)
		}
		lv.Kill(u)
		res.FaultEvents++
	case FaultsRegional:
		tl := w.regionTiling
		tid := int32(rng.IntN(tl.Tiles()))
		members := tl.Order()[tl.OrderOff()[tid]:tl.OrderOff()[tid+1]]
		killed := false
		for _, u := range members {
			if lv.Live(int(u)) {
				if loadOf != nil {
					res.DeadLoad += loadOf(u)
				}
				lv.Kill(u)
				killed = true
			}
		}
		if !killed {
			res.FaultSkipped++
			return
		}
		res.FaultEvents++
	}
}

// recoverEvent executes one recovery: a uniform dead node (FaultsCrash)
// or every dead node of a uniform region (FaultsRegional).
func recoverEvent(w *World, lv *cache.Liveness, rng *rand.Rand, res *Result) {
	switch w.cfg.Faults {
	case FaultsCrash:
		if lv.DeadCount() == 0 {
			res.FaultSkipped++
			return
		}
		lv.Revive(lv.DeadAt(rng.IntN(lv.DeadCount())))
		res.RecoverEvents++
	case FaultsRegional:
		tl := w.regionTiling
		tid := int32(rng.IntN(tl.Tiles()))
		members := tl.Order()[tl.OrderOff()[tid]:tl.OrderOff()[tid+1]]
		revived := false
		for _, u := range members {
			if !lv.Live(int(u)) {
				lv.Revive(u)
				revived = true
			}
		}
		if !revived {
			res.FaultSkipped++
			return
		}
		res.RecoverEvents++
	}
}
