package sim

import (
	"math/rand/v2"
	"sync"

	"repro/internal/ballsbins"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/replication"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// defaultChunk is the request-pipeline block size: the number of requests
// that flow through one generate → assign → account pass. Sized so the
// per-runner chunk buffers (5 × 4 B × chunk) stay far inside L2 while the
// per-chunk loop overhead vanishes.
const defaultChunk = 1024

// LinkSketchCap is the capacity of the streaming mode's space-saving
// link sketch (stats.SpaceSaving): the number of directed-link counters
// Result.LinkMaxApprox is summarized through. Worlds whose active link
// count fits the sketch get exact maxima; wider worlds an upper bound
// within totalHops/LinkSketchCap.
const LinkSketchCap = 1 << 10

// LinkSketchMaxN gates Result.LinkMaxApprox: the sketch runs only on
// worlds with n ≤ LinkSketchMaxN nodes, i.e. while the directed-link
// count 4n stays within 64× the sketch capacity. Beyond that a k-counter
// heavy-hitter summary is pure churn — its guarantee degrades to
// "within totalHops/k", which on near-uniform torus link loads dwarfs
// any real maximum (meaningful wide-world link accounting needs Ω(n)
// counters, i.e. MetricsLinks) — and the O(totalHops) feed would
// dominate the trial. Out-of-range trials report LinkMaxApprox = 0.
const LinkSketchMaxN = 16 * LinkSketchCap

// loadHistBound is the baseline resolution of the streaming load
// histogram. The actual bound scales with the mean per-node load (see
// Compile), so heavy-load configs (Requests ≫ n) keep exact quantiles;
// observations beyond the bound clamp into the top bucket as a last
// resort, and the exact maximum is tracked separately and never clamps.
const loadHistBound = 1 << 10

// World is one compiled simulation configuration: everything that is
// invariant across trials — the lattice, the popularity profile and its
// alias table, the placement profile, the ball/ring offset templates and
// the derived RNG sources — built exactly once by Compile. A World is
// immutable and safe for concurrent use; per-trial mutable state lives in
// Runners.
//
// Compiling amortizes the expensive trial-invariant setup (the Zipf PMF
// alone is K pow() calls) across the hundreds-to-thousands of trials every
// experiment point runs, which is where the simulator spends its life.
type World struct {
	cfg          Config
	g            *grid.Grid
	pop          dist.Popularity
	placeProfile dist.Popularity
	condName     string       // name of the MissResample-conditioned stream
	placeSrc     xrand.Source // namespace 1: placement streams, one per trial
	reqSrc       xrand.Source // namespace 2: interleaved request streams
	originSrc    xrand.Source // namespace 3: split-discipline origin streams
	fileSrc      xrand.Source // namespace 4: split-discipline file streams
	assignSrc    xrand.Source // namespace 5: split-discipline assignment streams
	churnSrc     xrand.Source // namespace 6: churn event streams
	faultSrc     xrand.Source // namespace 7: fault event streams
	heteroSrc    xrand.Source // namespace 8: hetero profile + arrival streams
	nReq         int
	chunk        int          // request-pipeline block size (tests override)
	loadBound    int          // streaming load-histogram bound
	tiling       *grid.Tiling // spatial-index geometry (IndexTiles, bounded radius)
	regionTiling *grid.Tiling // FaultsRegional failure-domain geometry

	runners sync.Pool // *Runner recycling for RunTrial and RunBlock (see pooled)
}

// Compile validates cfg and builds its trial-invariant state.
func Compile(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := xrand.NewSource(cfg.Seed)
	w := &World{
		cfg:       cfg,
		g:         grid.New(cfg.Side, cfg.Topology),
		placeSrc:  src.Split(1),
		reqSrc:    src.Split(2),
		originSrc: src.Split(3),
		fileSrc:   src.Split(4),
		assignSrc: src.Split(5),
		churnSrc:  src.Split(6),
		faultSrc:  src.Split(7),
		heteroSrc: src.Split(8),
		chunk:     defaultChunk,
	}
	if cfg.Chunk > 0 {
		w.chunk = cfg.Chunk
	}
	w.pop = cfg.Popularity.Build(cfg.K)
	w.condName = w.pop.Name() + "|cached"
	w.placeProfile = replication.PlacementProfile(w.pop, cfg.PlacementPolicy, cfg.CapFactor)
	w.nReq = cfg.Requests
	if w.nReq == 0 {
		w.nReq = w.g.N()
	}
	// The spatial replica index applies to bounded-radius choice
	// strategies; the tile side tracks the radius (t ∈ [r/3, r], see
	// tileSize) so a ball cover spans a handful of tiles whose footprint
	// scales with |B_r|.
	if cfg.Index == IndexTiles {
		if r, ok := indexedRadius(cfg, w.g); ok {
			w.tiling = w.g.NewTiling(tileSize(cfg.Side, r))
		}
	}
	// Regional faults kill whole tile-aligned failure domains. The region
	// side is independent of the index tiling (which tracks the search
	// radius): a fixed geometry of roughly 4×4 regions per lattice axis
	// keeps a single event correlated but survivable.
	if cfg.Faults == FaultsRegional {
		w.regionTiling = w.g.NewTiling(regionSize(cfg.Side))
	}
	// Size the streaming load histogram to the regime: 32× the mean
	// per-node load on top of the baseline keeps quantiles exact far past
	// any max-load concentration bound, while staying O(Requests/n) —
	// constant in n for the paper's one-request-per-server regime.
	w.loadBound = loadHistBound + 32*((w.nReq+w.g.N()-1)/w.g.N())
	return w, nil
}

// Config returns the configuration the world was compiled from.
func (w *World) Config() Config { return w.cfg }

// Grid returns the compiled lattice.
func (w *World) Grid() *grid.Grid { return w.g }

// N returns the number of servers.
func (w *World) N() int { return w.g.N() }

// RunTrial executes one independent trial (trial index t under cfg.Seed).
// Identical (cfg, t) pairs produce identical results regardless of whether
// they run through a fresh world, a reused Runner, or the package-level
// RunTrial. Safe for concurrent use; runners are pooled internally.
func (w *World) RunTrial(t uint64) (res Result) {
	w.pooled(func(r *Runner) { res = r.RunTrial(t) })
	return res
}

// pooled runs f on a Runner borrowed from the world's pool, building one
// when the pool is empty.
func (w *World) pooled(f func(*Runner)) {
	r, _ := w.runners.Get().(*Runner)
	if r == nil {
		r = w.NewRunner()
	}
	f(r)
	w.runners.Put(r)
}

// reseedRand is a reusable deterministic generator: one PCG wrapped by one
// *rand.Rand for the runner's lifetime, reseeded per trial through
// xrand.Source.StreamSeed. Reseeding in place yields sequences
// bit-identical to a freshly constructed xrand Stream while allocating
// nothing, which is what makes steady-state trials allocation-free.
type reseedRand struct {
	pcg rand.PCG
	r   *rand.Rand
}

// stream reseeds the generator to source s, stream t and returns it.
func (rr *reseedRand) stream(s xrand.Source, t uint64) *rand.Rand {
	if rr.r == nil {
		rr.r = rand.New(&rr.pcg)
	}
	rr.pcg.Seed(s.StreamSeed(t))
	return rr.r
}

// Request-record flags carried from the assign phase to the account phase.
const (
	flagEscalated = 1 << 0
	flagBackhaul  = 1 << 1
	flagRetried   = 1 << 2
)

// regionSize picks the FaultsRegional failure-domain side for a lattice
// of the given side: the largest divisor of side no larger than side/4,
// so one regional event takes out at most ~1/16 of the world. Degenerates
// to single-node regions on tiny or prime sides.
func regionSize(side int) int {
	bound := max(1, side/4)
	for t := bound; t >= 1; t-- {
		if side%t == 0 {
			return t
		}
	}
	return 1
}

// RegionNodes reports the node count of one FaultsRegional failure
// domain on an L×L lattice — the per-event blast radius. Exposed so
// experiments can scale FaultRate from a target failed fraction
// (events × RegionNodes ≈ nodes killed, ignoring region re-draws).
func RegionNodes(side int) int {
	t := regionSize(side)
	return t * t
}

// Runner executes trials of one World through reusable per-worker scratch:
// the trial state (placer, liveness mask, event schedules, sampler
// arenas), the load vector, the strategy instances with their candidate
// buffers, the per-trial generators, the metric arenas and the
// request-pipeline chunk buffers. After the first trial a Runner's
// steady state allocates nothing. A Runner is NOT safe for concurrent
// use; create one per worker.
//
// A trial is one pipeline. It sets up once — trialState.arm (capacity
// profile, placement, conditioned file sampler, event streams), strategy
// binding, load view and metric resets — then runs one loop over
// fixed-size chunks:
//
//	fill    — draw (origin, file) ids into the chunk buffers and assign
//	          each request, recording (server, hops, flags);
//	account — fold the chunk's records into the trial accumulators (an
//	          exact hop total, the miss and degradation counters, link
//	          loads or streaming moments and the link sketch);
//	barrier — apply the arrival, fault and churn schedules the chunk
//	          accrued (trialState.advance, the method the served
//	          Snapshot's Advance calls too), so strategies never observe
//	          a half-applied mutation;
//
// and finishes once. The fill is the only per-discipline step, chosen
// per chunk, never per request:
//
//	interleaved — StreamsInterleaved fuses generate and assign on one
//	              per-trial stream: every strategy draws from the same
//	              stream as the id generation (candidate sampling, tie
//	              breaks), so separating them would reorder RNG
//	              consumption and break the pinned goldens;
//	split       — StreamsSplit gives each role its own stream, so the ids
//	              come from one batched dist.RequestBatch call per chunk
//	              before the assign loop;
//	sharded     — Workers ≥ 1 cuts the chunk into 64-request granules
//	              that P workers generate and assign concurrently (see
//	              shard.go).
type Runner struct {
	trialState

	loads    *ballsbins.Loads
	strat    core.Strategy // the sequential fills' instance (shards own theirs)
	weighted ballsbins.WeightedLoads
	// view is what Assign compares through: the raw vector (the atomic one
	// under ShardRacy), wrapped in weighted under capacity skew. Writes,
	// MaxLoad and the load summary stay on the raw vector.
	view core.LoadReader

	req, origin, file, assign reseedRand

	// Chunk buffers of the request pipeline (len = min(chunk, requests)).
	origins []int32
	files   []int32
	servers []int32
	hops    []int32
	flags   []uint8

	// Metric arenas for the world's MetricsMode, built by NewRunner.
	links   *routing.LinkLoads // MetricsLinks
	hopAcc  *stats.Accumulator // MetricsStreaming: per-request hop moments
	granAcc *stats.Accumulator // one granule's hop moments (Workers ≥ 1)
	loadAcc *stats.Accumulator // final node loads → Result.LoadP99
	links64 *stats.SpaceSaving // link heavy hitters → Result.LinkMaxApprox
	linkBuf []uint64           // per-request link ids of the XY route

	// Sharded fill state (Config.Workers > 0; see shard.go): per-shard
	// worker scratch, the racy mode's shared atomic load vector (nil
	// otherwise), the reusable start-signal channels of the worker barrier
	// protocol, and the current chunk descriptor the coordinator publishes
	// before each start signal (the channel send/recv is the
	// happens-before edge).
	shards      []shardState
	atomicLoads *ballsbins.AtomicLoads
	startCh     []chan struct{}
	doneWG      sync.WaitGroup
	shardT      uint64
	shardBase   int
	shardC      int
}

// tileSize picks the index tile side for radius r: the largest divisor
// of the lattice side in [r/3, r], falling back to r/2 when none
// divides. Divisibility makes the precomputed cover template apply
// (uniform tiles, t | L); within the admissible band, larger tiles won
// the wide-world sweep — fewer cover rows to intersect against the
// per-file directories outweighs the extra rejection sampling on
// partial tiles (see docs/perf.md for the measured tradeoff).
func tileSize(side, r int) int {
	best := 0
	for t := max(1, r/3); t <= max(1, r); t++ {
		if side%t == 0 {
			best = t
		}
	}
	if best == 0 {
		return max(1, r/2)
	}
	return best
}

// indexedRadius reports the proximity radius the spatial index would
// serve, and whether the configured strategy has one (choice-based, with
// an effective bounded radius).
func indexedRadius(cfg Config, g *grid.Grid) (int, bool) {
	switch cfg.Strategy.Kind {
	case TwoChoices, OneChoiceRandom, Oracle:
		r := cfg.Strategy.Radius
		if r < 0 || r >= g.Diameter() {
			return 0, false // unbounded: the whole replica list is the pool
		}
		return r, true
	}
	return 0, false
}

// churnDrift* parameterize the ChurnDrift popularity drifter, in chunk
// ticks (the drifter steps once per pipeline chunk): roughly one file in
// a thousand surges per chunk, surges last 64 chunks on average and
// boost a file's migration weight 10×. The constants aim the drifter at
// visible catalog turnover within a 10⁵–10⁶ request trial; they are part
// of the seeded process frozen by the churn golden pins.
const (
	churnDriftBoost    = 10.0
	churnDriftBirth    = 1e-3
	churnDriftLifespan = 64.0
)

// NewRunner returns a fresh Runner over w.
func (w *World) NewRunner() *Runner {
	b := min(w.chunk, w.nReq)
	r := &Runner{
		loads:   ballsbins.NewLoads(w.g.N()),
		origins: make([]int32, b),
		files:   make([]int32, b),
		servers: make([]int32, b),
		hops:    make([]int32, b),
		flags:   make([]uint8, b),
	}
	// Arrivals mutate the placement mid-trial, so HeteroArrival needs the
	// churn (mutable slab) layout even with churn itself off.
	r.init(w, w.cfg.Churn != ChurnNone || w.cfg.Hetero == HeteroArrival)
	switch w.cfg.Metrics {
	case MetricsLinks:
		r.links = routing.NewLinkLoads(w.g)
	case MetricsStreaming:
		r.hopAcc = stats.NewAccumulator(w.g.Diameter())
		r.loadAcc = stats.NewAccumulator(w.loadBound)
		if w.cfg.Workers > 0 {
			r.granAcc = stats.NewAccumulator(w.g.Diameter())
		}
		if w.g.N() <= LinkSketchMaxN {
			r.links64 = stats.NewSpaceSaving(LinkSketchCap)
			r.linkBuf = make([]uint64, 0, w.g.Diameter()+1)
		}
	}
	if p := w.cfg.Workers; p > 0 {
		r.shards = make([]shardState, p)
		r.startCh = make([]chan struct{}, p)
		for s := 1; s < p; s++ {
			r.startCh[s] = make(chan struct{}, 1)
		}
		if w.cfg.Shard == ShardRacy {
			r.atomicLoads = ballsbins.NewAtomicLoads(w.g.N())
		}
	}
	return r
}

// RunTrial executes one independent trial. Identical (cfg, t) pairs
// produce identical results; the reused scratch never leaks state between
// trials (pinned by the cross-implementation golden tests).
func (r *Runner) RunTrial(t uint64) Result {
	w := r.w
	n := w.g.N()
	r.arm(t)
	if r.shards == nil {
		r.strat = r.bind(r.strat)
	}
	for s := range r.shards {
		r.shards[s].strat = r.bind(r.shards[s].strat)
		r.shards[s].maxSeen = 0
	}
	r.loads.Reset()
	var raw core.LoadReader = r.loads
	if r.atomicLoads != nil {
		r.atomicLoads.Reset()
		raw = r.atomicLoads
	}
	r.view = raw
	if r.heteroSt.mults != nil {
		r.weighted.Bind(raw, r.heteroSt.mults)
		r.view = &r.weighted
	}
	if r.links != nil {
		r.links.Reset()
	}
	if r.hopAcc != nil {
		r.hopAcc.Reset()
		r.loadAcc.Reset()
		if r.links64 != nil {
			r.links64.Reset()
		}
	}

	chunk := len(r.origins)
	var reqRNG, originRNG, fileRNG, assignRNG *rand.Rand
	switch {
	case r.shards != nil:
		r.shardT = t
		nChunks := (w.nReq + chunk - 1) / chunk
		for s := 1; s < len(r.shards); s++ {
			go r.shardWorker(s, nChunks)
		}
	case w.cfg.Streams == StreamsInterleaved:
		reqRNG = r.req.stream(w.reqSrc, t)
	default:
		originRNG = r.origin.stream(w.originSrc, t)
		fileRNG = r.file.stream(w.fileSrc, t)
		assignRNG = r.assign.stream(w.assignSrc, t)
	}

	res := Result{Requests: w.nReq, Uncached: r.p.UncachedCount()}
	var hops int64
	for base := 0; base < w.nReq; base += chunk {
		c := min(chunk, w.nReq-base)
		switch {
		case r.shards != nil:
			r.fillSharded(base, c)
		case reqRNG != nil:
			r.generateAssign(reqRNG, c)
		default:
			dist.RequestBatch(originRNG, fileRNG, n, r.pop, r.origins[:c], r.files[:c])
			r.assignChunk(assignRNG, c)
		}
		hops += r.account(c, &res)
		// After the final chunk no request would observe a mutation.
		if base+c < w.nReq {
			r.advance(c, r.nodeLoad, &res)
		}
	}

	if w.nReq > 0 {
		res.MeanCost = float64(hops) / float64(w.nReq)
	}
	res.MaxLoad = r.loads.Max()
	for s := range r.shards {
		// ShardRacy writes only the atomic vector; its maximum is the
		// largest value any worker's Add returned.
		res.MaxLoad = max(res.MaxLoad, r.shards[s].maxSeen)
	}
	if r.heteroSt.vacant != nil {
		res.Vacant = len(r.heteroSt.vacantList)
	}
	if r.live != nil {
		// Availability is the fraction of requests the cache network
		// itself served: everything that did not fall through to backhaul.
		res.Faulted = true
		res.DeadNodes = r.live.DeadCount()
		if w.nReq > 0 {
			res.Availability = float64(w.nReq-res.Backhaul) / float64(w.nReq)
		}
	}
	if r.links != nil {
		res.MaxLinkLoad = r.links.Max()
		res.LinkCongestion = r.links.CongestionFactor()
	}
	if r.hopAcc != nil {
		for u := 0; u < n; u++ {
			r.loadAcc.Observe(r.nodeLoad(int32(u)))
		}
		res.Streamed = true
		res.HopMax = r.hopAcc.Max()
		res.HopStd = r.hopAcc.Std()
		res.LoadP99 = r.loadAcc.Quantile(0.99)
		if r.links64 != nil {
			res.LinkMaxApprox = r.links64.MaxCount()
		}
	}
	return res
}

// nodeLoad reads node u's raw load: the base vector everywhere except
// racy sharded trials, whose loads accumulate in the shared atomic
// vector instead.
func (r *Runner) nodeLoad(u int32) int {
	if r.atomicLoads != nil {
		return r.atomicLoads.Load(int(u))
	}
	return r.loads.Load(int(u))
}

// generateAssign is the interleaved fill: ids and strategy draws share
// one stream, consumed per request in the exact pre-pipeline order
// (origin, file, then the strategy's own draws).
func (r *Runner) generateAssign(rng *rand.Rand, c int) {
	n, strat, pop, view := r.w.g.N(), r.strat, r.pop, r.view
	for i := 0; i < c; i++ {
		req := core.Request{
			Origin: int32(rng.IntN(n)),
			File:   int32(pop.Sample(rng)),
		}
		r.origins[i] = req.Origin
		r.record(i, strat.Assign(req, view, rng))
	}
}

// assignChunk is the assign half of the split fill: it consumes the
// pre-generated chunk ids, running the strategy against the dedicated
// assignment stream.
func (r *Runner) assignChunk(rng *rand.Rand, c int) {
	strat, view := r.strat, r.view
	for i := 0; i < c; i++ {
		req := core.Request{Origin: r.origins[i], File: r.files[i]}
		r.record(i, strat.Assign(req, view, rng))
	}
}

// record applies one assignment to the load vector and stores its request
// record for the account phase.
func (r *Runner) record(i int, a core.Assignment) {
	r.loads.Add(int(a.Server))
	r.servers[i] = a.Server
	r.hops[i] = a.Hops
	r.flags[i] = flagsOf(a)
}

// flagsOf packs an assignment's degradation flags into a request record.
func flagsOf(a core.Assignment) uint8 {
	var f uint8
	if a.Escalated {
		f |= flagEscalated
	}
	if a.Backhaul {
		f |= flagBackhaul
	}
	if a.Retried {
		f |= flagRetried
	}
	return f
}

// account folds one chunk of request records into the trial accumulators
// and returns the chunk's hop total. It never touches the RNG streams,
// so deferring it out of the assign loop is invisible to the draw order.
// Hops sum exactly in int64, so MeanCost does not depend on how the
// trial is cut into chunks or shards.
func (r *Runner) account(c int, res *Result) int64 {
	var hops int64
	for i := 0; i < c; i++ {
		hops += int64(r.hops[i])
		f := r.flags[i]
		if f&flagEscalated != 0 {
			res.Escalated++
		}
		if f&flagBackhaul != 0 {
			res.Backhaul++
		}
		if f&flagRetried != 0 {
			res.Retried++
		}
	}
	if r.links != nil {
		for i := 0; i < c; i++ {
			r.links.Route(int(r.origins[i]), int(r.servers[i]))
		}
	}
	if r.hopAcc == nil {
		return hops
	}
	if r.granAcc == nil {
		for i := 0; i < c; i++ {
			r.hopAcc.Observe(int(r.hops[i]))
		}
	} else {
		// The sharded process folds hop moments per 64-request granule
		// through Merge, in granule order. A Welford merge is not
		// bit-identical to sequential Observe, and the parallel golden
		// pins freeze HopStd.
		for lo := 0; lo < c; lo += shardGranule {
			r.granAcc.Reset()
			for i := lo; i < min(lo+shardGranule, c); i++ {
				r.granAcc.Observe(int(r.hops[i]))
			}
			r.hopAcc.Merge(r.granAcc)
		}
	}
	if r.links64 != nil {
		// Recover per-link traffic without the O(n) link vector: replay
		// each delivery's XY route into the heavy-hitter sketch.
		for i := 0; i < c; i++ {
			if r.hops[i] == 0 {
				continue
			}
			r.linkBuf = routing.AppendLinks(r.w.g, int(r.origins[i]), int(r.servers[i]), r.linkBuf[:0])
			for _, id := range r.linkBuf {
				r.links64.Observe(id)
			}
		}
	}
	return hops
}
