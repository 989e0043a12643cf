package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/ballsbins"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// placeNamespace is the xrand split label of the engine's per-trial
// placement streams; it mirrors World.placeSrc = src.Split(1) in
// sim.Compile.
const placeNamespace = 1

// replayer re-runs sequential trials of one world through the engine's
// public pieces — World.Snapshot, World.RequestStream, World.AssignSeed,
// Snapshot.NewStrategy/Bind/WrapLoads/Advance — with a span around every
// call into a layer, the way the served mode drives them. Its buffers are
// reused across trials as a Runner's is.
type replayer struct {
	w       *sim.World
	cfg     sim.Config
	profile dist.Popularity
	place   xrand.Source
	tr      *tracer

	placer *cache.Placer // in the untraced runner's layout, built on first use
	caps   []int32       // hetero capacities for placer.SetHetero
	vacant []bool

	loads           *ballsbins.Loads
	strat           core.Strategy
	hopAcc, loadAcc *stats.Accumulator
	origins, files  []int32
	as              []core.Assignment
}

// newReplayer needs w's Config.Chunk set: the replay cuts the request
// stream into the engine's chunks, so it takes their size from the config
// rather than from the engine's default.
func newReplayer(w *sim.World, tr *tracer) *replayer {
	cfg := w.Config()
	chunk := min(cfg.Chunk, w.Requests())
	n := w.N()
	return &replayer{
		w:       w,
		cfg:     cfg,
		profile: replication.PlacementProfile(cfg.Popularity.Build(cfg.K), cfg.PlacementPolicy, cfg.CapFactor),
		place:   xrand.NewSource(cfg.Seed).Split(placeNamespace),
		tr:      tr,
		loads:   ballsbins.NewLoads(n),
		hopAcc:  stats.NewAccumulator(w.Grid().Diameter()),
		loadAcc: stats.NewAccumulator(1<<10 + 32*((w.Requests()+n-1)/n)),
		origins: make([]int32, chunk),
		files:   make([]int32, chunk),
		as:      make([]core.Assignment, chunk),
	}
}

// maxCap is the largest per-node cache size the world's profile can draw;
// it mirrors sim.profileMaxCap.
func maxCap(cfg sim.Config) int {
	switch {
	case cfg.Hetero == sim.HeteroNone:
		return cfg.M
	case cfg.Profile == sim.ProfileTwoTier:
		return 2 * cfg.M
	case cfg.Profile == sim.ProfilePowerLaw:
		return 8 * cfg.M
	}
	return cfg.M
}

// newPlacer builds a placer in the layout sim.World.NewRunner uses,
// taking the tiling from the snapshot's index.
func (rp *replayer) newPlacer(sp *cache.Placement) *cache.Placer {
	cfg := rp.cfg
	pl := cache.NewPlacer(rp.w.N(), cfg.M, cfg.K)
	if cfg.Hetero != sim.HeteroNone {
		pl.EnableHetero(maxCap(cfg))
		rp.caps = make([]int32, rp.w.N())
		rp.vacant = make([]bool, rp.w.N())
	}
	if tix := sp.TileIndex(); tix != nil {
		pl.EnableTiles(tix.Tiling())
	}
	if cfg.Churn != sim.ChurnNone || cfg.Hetero == sim.HeteroArrival {
		pl.EnableChurn()
	}
	return pl
}

// timePlace times cache.Placer.Place for trial t on the reused placer and
// checks that it builds the placement the snapshot holds. World.Snapshot
// builds its placement on a fresh placer in the churn layout, which costs
// more than the runner's reused build, so the span is taken here.
func (rp *replayer) timePlace(s *sim.Snapshot, t uint64, root int) error {
	sp := s.Placement()
	if rp.placer == nil {
		rp.placer = rp.newPlacer(sp)
	}
	if rp.caps != nil {
		// At era start a node is vacant exactly when it caches nothing.
		for u := range rp.caps {
			rp.caps[u] = int32(sp.Cap(u))
			rp.vacant[u] = len(sp.NodeFiles(u)) == 0
		}
		rp.placer.SetHetero(rp.caps, rp.vacant)
	}
	rng := rp.place.Stream(t)
	i := rp.tr.begin("cache.place", root)
	p := rp.placer.Place(rp.profile, rp.cfg.PlacementMode, rng)
	rp.tr.end(i)
	return samePlacement(p, sp)
}

// samePlacement reports whether two placements hold the same replica sets.
func samePlacement(a, b *cache.Placement) error {
	if a.UncachedCount() != b.UncachedCount() {
		return fmt.Errorf("placement: %d uncached files, snapshot has %d", a.UncachedCount(), b.UncachedCount())
	}
	for j := 0; j < a.K(); j++ {
		if !slices.Equal(a.Replicas(j), b.Replicas(j)) {
			return fmt.Errorf("placement: replicas of file %d differ from the snapshot's", j)
		}
	}
	return nil
}

// trial replays trial t with spans and returns its Result. The error
// reports the first decision that failed its check or a placement that
// differs from the snapshot's; checks run between spans.
func (rp *replayer) trial(t uint64) (sim.Result, error) {
	w, tr := rp.w, rp.tr
	n, nReq, chunk := w.N(), w.Requests(), len(rp.origins)
	s := w.Snapshot(t)
	root := tr.begin("trial", -1)
	defer tr.end(root)
	bad := rp.timePlace(s, t, root)

	if rp.strat == nil {
		rp.strat = s.NewStrategy()
	} else {
		rp.strat = s.Bind(rp.strat)
	}
	rp.loads.Reset()
	rp.hopAcc.Reset()
	rp.loadAcc.Reset()
	view := s.WrapLoads(rp.loads)
	pop := s.FileSampler()
	originRNG, fileRNG := w.RequestStream(t)
	assignRNG := rand.New(rand.NewPCG(w.AssignSeed(t)))
	chk := decisionChecker{g: w.Grid()}
	chk.r, chk.bounded = boundedRadius(rp.cfg, w.Grid())

	res := sim.Result{Requests: nReq, Uncached: s.Placement().UncachedCount()}
	var hops float64
	for base := 0; base < nReq; base += chunk {
		c := min(chunk, nReq-base)
		sp := tr.begin("dist.generate", root)
		dist.RequestBatch(originRNG, fileRNG, n, pop, rp.origins[:c], rp.files[:c])
		tr.end(sp)

		sp = tr.begin("core.assign", root)
		for i := 0; i < c; i++ {
			a := rp.strat.Assign(core.Request{Origin: rp.origins[i], File: rp.files[i]}, view, assignRNG)
			rp.loads.Add(int(a.Server))
			rp.as[i] = a
		}
		tr.end(sp)

		chk.p, chk.live = s.Placement(), s.Liveness()
		for i := 0; i < c && bad == nil; i++ {
			bad = chk.check(core.Request{Origin: rp.origins[i], File: rp.files[i]}, rp.as[i])
		}

		sp = tr.begin("stats.account", root)
		for _, a := range rp.as[:c] {
			hops += float64(a.Hops)
			rp.hopAcc.Observe(int(a.Hops))
			if a.Escalated {
				res.Escalated++
			}
			if a.Backhaul {
				res.Backhaul++
			}
			if a.Retried {
				res.Retried++
			}
		}
		tr.end(sp)

		// The barrier phase follows every chunk; after the last one it
		// has nothing to apply, as in the engine.
		sp = tr.begin("sim.barrier", root)
		if base+c < nReq {
			s.Advance(c)
			rp.strat = s.Bind(rp.strat)
		}
		tr.end(sp)
	}
	sp := tr.begin("stats.account", root)
	for u := 0; u < n; u++ {
		rp.loadAcc.Observe(rp.loads.Load(u))
	}
	tr.end(sp)

	res.MaxLoad = rp.loads.Max()
	if nReq > 0 {
		res.MeanCost = hops / float64(nReq)
	}
	info := s.Info()
	res.ChurnEvents, res.ChurnSkipped = info.ChurnEvents, info.ChurnSkipped
	res.FaultEvents, res.RecoverEvents, res.FaultSkipped = info.FaultEvents, info.RecoverEvents, info.FaultSkipped
	res.DeadNodes = info.DeadNodes
	res.ArrivalEvents, res.ArrivalSkipped, res.Vacant = info.ArrivalEvents, info.ArrivalSkipped, info.Vacant
	return res, bad
}
