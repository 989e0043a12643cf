package cache

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
)

// heteroCaps returns a mixed capacity vector in [1, maxCap] with every
// value hit, the deterministic skew the variable-stride tests run under.
func heteroCaps(n, maxCap int) []int32 {
	caps := make([]int32, n)
	for u := range caps {
		caps[u] = int32(1 + u%maxCap)
	}
	return caps
}

// TestHeteroDegenerateMatchesHomogeneous: a hetero-enabled Placer whose
// capacity vector is uniformly M must reproduce the homogeneous engine's
// placement draw for draw — same RNG history, same node lists, same
// replica CSR, same cached set — across placement modes and layouts.
// The variable-stride CSR (per-node capOff offsets instead of the
// M-stride slab) is a pure layout change.
func TestHeteroDegenerateMatchesHomogeneous(t *testing.T) {
	const side, m, k = 8, 3, 60
	n := side * side
	g := grid.New(side, grid.Torus)
	pop := dist.NewZipf(k, 1.0)
	caps := make([]int32, n)
	for u := range caps {
		caps[u] = m
	}
	for _, mode := range []Mode{WithReplacement, WithoutReplacement} {
		for _, layout := range []struct {
			name          string
			tiles, mutate bool
		}{
			{name: "immutable"},
			{name: "churn", mutate: true},
			{name: "churn+tiles", tiles: true, mutate: true},
		} {
			r1 := rand.New(rand.NewPCG(7, 9))
			r2 := rand.New(rand.NewPCG(7, 9))
			ref := NewPlacer(n, m, k).Place(pop, mode, r1)
			het := NewPlacer(n, m, k)
			het.EnableHetero(m)
			if layout.tiles {
				het.EnableTiles(g.NewTiling(2))
			}
			if layout.mutate {
				het.EnableChurn()
			}
			het.SetHetero(caps, nil)
			got := het.Place(pop, mode, r2)
			for u := 0; u < n; u++ {
				if got.Cap(u) != m {
					t.Fatalf("mode=%v %s node %d: Cap=%d, want %d", mode, layout.name, u, got.Cap(u), m)
				}
				gf := slices.Clone(got.NodeFiles(u))
				slices.Sort(gf)
				if !slices.Equal(ref.NodeFiles(u), gf) {
					t.Fatalf("mode=%v %s node %d: files %v != %v", mode, layout.name, u, gf, ref.NodeFiles(u))
				}
			}
			for j := 0; j < k; j++ {
				if !slices.Equal(ref.Replicas(j), got.Replicas(j)) {
					t.Fatalf("mode=%v %s file %d: replicas differ", mode, layout.name, j)
				}
			}
			if !slices.Equal(ref.CachedFiles(), got.CachedFiles()) {
				t.Fatalf("mode=%v %s: cached sets differ", mode, layout.name)
			}
		}
	}
}

// TestHeteroStormAgainstRebuild is the variable-stride extension of
// TestReplaceReplicaStorm: over a mixed-capacity placement with vacant
// nodes, random legal migration/swap batches interleave with node
// arrivals (which splice the joiner into the replica CSR and tile index
// in place), and after every batch each incremental structure must be
// set-equal to a from-scratch rebuild. This is the property contract
// that lets churn and arrivals compose mid-trial.
func TestHeteroStormAgainstRebuild(t *testing.T) {
	const side, m, k, maxCap = 8, 3, 60, 6
	n := side * side
	g := grid.New(side, grid.Torus)
	caps := heteroCaps(n, maxCap)
	for _, tc := range []struct {
		name  string
		pop   dist.Popularity
		tiles bool
		mode  Mode
	}{
		{name: "uniform/plain", pop: dist.NewUniform(k)},
		{name: "uniform/tiles", pop: dist.NewUniform(k), tiles: true},
		{name: "zipf/tiles", pop: dist.NewZipf(k, 1.2), tiles: true},
		{name: "zipf/tiles/without-replacement", pop: dist.NewZipf(k, 1.2), tiles: true, mode: WithoutReplacement},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(0xBEEF, 21))
			pl := NewPlacer(n, m, k)
			pl.EnableHetero(maxCap)
			var tl *grid.Tiling
			if tc.tiles {
				tl = g.NewTiling(2)
				pl.EnableTiles(tl)
			}
			pl.EnableChurn()
			vacant := make([]bool, n)
			var vacantList []int32
			for u := 0; u < n; u += 5 {
				vacant[u] = true
				vacantList = append(vacantList, int32(u))
			}
			pl.SetHetero(caps, vacant)
			p := pl.Place(tc.pop, tc.mode, r)
			for _, u := range vacantList {
				if p.T(int(u)) != 0 {
					t.Fatalf("vacant node %d placed with %d files", u, p.T(int(u)))
				}
			}
			checkAgainstRebuild(t, p, tl)
			moved, swapped, arrived := 0, 0, 0
			for batch := 0; batch < 24; batch++ {
				for e := 0; e < 25; e++ {
					slot := r.IntN(p.ReplicaSlots())
					j, u := p.SlotReplica(slot)
					v := int32(r.IntN(n))
					if vacant[v] {
						continue // the engine's vacant-destination skip
					}
					if p.CanReplace(j, u, v) {
						p.ReplaceReplica(j, u, v)
						moved++
						continue
					}
					if v == u || p.Has(int(v), j) || p.T(int(v)) < p.Cap(int(v)) {
						continue
					}
					vFiles := p.NodeFiles(int(v))
					j2 := int(vFiles[r.IntN(len(vFiles))])
					if p.CanSwap(j, u, j2, v) {
						p.SwapReplicas(j, u, j2, v)
						swapped++
					}
				}
				if batch%4 == 3 && len(vacantList) > 0 {
					i := r.IntN(len(vacantList))
					u := vacantList[i]
					vacantList[i] = vacantList[len(vacantList)-1]
					vacantList = vacantList[:len(vacantList)-1]
					pl.ArriveNode(u, tc.pop, tc.mode, r)
					vacant[u] = false
					if p.T(int(u)) == 0 {
						t.Fatalf("arrival left node %d empty", u)
					}
					arrived++
				}
				checkAgainstRebuild(t, p, tl)
			}
			// Without-replacement fills every node to capacity, so plain
			// migrations are degenerate there (see
			// TestWithoutReplacementChurnDegenerate) — churn is swap-only.
			if (moved == 0 && tc.mode != WithoutReplacement) || swapped == 0 || arrived < 3 {
				t.Fatalf("storm too tame (moved=%d swapped=%d arrived=%d); test is vacuous",
					moved, swapped, arrived)
			}
			// A re-Place on the same Placer must fully reset the arenas.
			pl.SetHetero(caps, nil)
			p = pl.Place(tc.pop, tc.mode, r)
			checkAgainstRebuild(t, p, tl)
		})
	}
}

// TestHeteroArriveNodeRepadsDirectory pins the re-pad half of the
// directory-capacity contract: an arrival grows |S_j| for every file the
// joining node drew, and the arrival splice must re-pad each sparse
// file's tile-directory capacity to min(|S_j|, Tiles) — so post-arrival
// churn splices have the headroom the capacity panic assumes.
func TestHeteroArriveNodeRepadsDirectory(t *testing.T) {
	const side, m, k, maxCap = 8, 3, 60, 6
	n := side * side
	g := grid.New(side, grid.Torus)
	tl := g.NewTiling(2)
	pop := dist.NewUniform(k)
	r := rand.New(rand.NewPCG(4, 44))
	pl := NewPlacer(n, m, k)
	pl.EnableHetero(maxCap)
	pl.EnableTiles(tl)
	pl.EnableChurn()
	caps := heteroCaps(n, maxCap)
	vacant := make([]bool, n)
	u := int32(17)
	caps[u] = maxCap // the arrival draws a full-width slab
	vacant[u] = true
	pl.SetHetero(caps, vacant)
	p := pl.Place(pop, WithReplacement, r)

	pl.ArriveNode(u, pop, WithReplacement, r)
	if p.T(int(u)) == 0 {
		t.Fatal("arrival left the node empty")
	}
	ix := p.TileIndex()
	grown := 0
	for j := 0; j < k; j++ {
		want := int32(0)
		if ix.FileBits(j) == nil {
			want = min(int32(len(p.Replicas(j))), int32(tl.Tiles()))
		}
		if got := ix.dirOff[j+1] - ix.dirOff[j]; got != want {
			t.Fatalf("file %d: directory capacity %d after arrival, want %d", j, got, want)
		}
	}
	for _, f := range p.NodeFiles(int(u)) {
		if ix.FileBits(int(f)) == nil {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("arrival grew no sparse file; re-pad not exercised")
	}
	checkAgainstRebuild(t, p, tl)

	// Post-arrival splices must still be legal against the re-padded
	// directory.
	moved := 0
	for e := 0; e < 200; e++ {
		slot := r.IntN(p.ReplicaSlots())
		j, src := p.SlotReplica(slot)
		v := int32(r.IntN(n))
		if !vacantSkip(vacant, v) && p.CanReplace(j, src, v) {
			p.ReplaceReplica(j, src, v)
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no post-arrival migration applied; splice headroom not exercised")
	}
	checkAgainstRebuild(t, p, tl)
}

func vacantSkip(vacant []bool, v int32) bool { return vacant[v] }

// TestHeteroTileDirectoryOverflowPanics pins the loud half of the
// directory-capacity contract: a splice that needs a directory entry
// beyond the file's padded capacity — the state a grown |S_j| reaches
// when a caller skips the ArriveNode re-pad — must panic rather than
// corrupt a neighbouring file's directory. The test forges the stale-capacity
// state by clamping one file's capacity to its current length.
func TestHeteroTileDirectoryOverflowPanics(t *testing.T) {
	const side, m, k = 8, 3, 60
	n := side * side
	g := grid.New(side, grid.Torus)
	tl := g.NewTiling(2)
	pop := dist.NewUniform(k)
	r := rand.New(rand.NewPCG(12, 13))
	pl := NewPlacer(n, m, k)
	pl.EnableTiles(tl)
	pl.EnableChurn()
	p := pl.Place(pop, WithReplacement, r)
	ix := p.TileIndex()

	// Find a migration that must insert a NEW directory entry without
	// freeing one: u's tile run holds ≥ 2 replicas (no removal) and v's
	// tile is absent from the directory (insertion).
	for j := 0; j < k; j++ {
		if ix.FileBits(j) != nil || len(p.Replicas(j)) < 2 {
			continue
		}
		tiles, starts, segEnd := ix.FileRuns(j)
		for d, tu := range tiles {
			end := segEnd
			if d+1 < len(starts) {
				end = starts[d+1]
			}
			if end-starts[d] < 2 {
				continue // removal would drop the entry and free a slot
			}
			u := ix.Nodes()[starts[d]]
			for v := int32(0); v < int32(n); v++ {
				tv := tl.TileOf(v)
				if tv == tu || !p.CanReplace(j, u, v) {
					continue
				}
				if _, present := slices.BinarySearch(tiles, tv); present {
					continue
				}
				// Forge the stale capacity: pretend the build padded file
				// j only to its current directory length.
				ix.dirOff[j+1] = ix.dirOff[j] + ix.dirLen[j]
				mustPanic(t, "directory overflow", func() { p.ReplaceReplica(j, u, v) })
				return
			}
		}
	}
	t.Fatal("no overflow-inducing migration found; placement shape too degenerate")
}

// TestHeteroArriveNodePanics pins the precondition contract.
func TestHeteroArriveNodePanics(t *testing.T) {
	pop := dist.NewUniform(10)
	r := rand.New(rand.NewPCG(1, 2))

	plain := NewPlacer(9, 2, 10)
	plain.EnableChurn()
	plain.Place(pop, WithReplacement, r)
	mustPanic(t, "no EnableHetero", func() { plain.ArriveNode(0, pop, WithReplacement, r) })

	frozen := NewPlacer(9, 2, 10)
	frozen.EnableHetero(2)
	frozen.SetHetero([]int32{2, 2, 2, 2, 2, 2, 2, 2, 2}, nil)
	frozen.Place(pop, WithReplacement, r)
	mustPanic(t, "immutable layout", func() { frozen.ArriveNode(0, pop, WithReplacement, r) })

	het := NewPlacer(9, 2, 10)
	het.EnableHetero(2)
	het.EnableChurn()
	het.SetHetero([]int32{2, 2, 2, 2, 2, 2, 2, 2, 2}, make([]bool, 9))
	p := het.Place(pop, WithReplacement, r)
	var occupied int32 = -1
	for u := 0; u < 9; u++ {
		if p.T(u) > 0 {
			occupied = int32(u)
			break
		}
	}
	if occupied < 0 {
		t.Fatal("placement left every node empty")
	}
	mustPanic(t, "non-vacant node", func() { het.ArriveNode(occupied, pop, WithReplacement, r) })
}

// placementViews is everything a reader of a placement and its tile
// index can observe, deep-copied so a later rebuild cannot alias it.
// Dense files' tile-major segments are build scratch, not views, and
// are left out.
type placementViews struct {
	replicas        [][]int32
	cached          []int32
	uncached, slots int
	segs            [][]int32 // tile-major S_j of sparse files
	tiles, starts   [][]int32
	segEnd          []int32
	bits            [][]uint64
	dirCap          []int32
}

func capturePlacementViews(p *Placement) placementViews {
	k := p.K()
	v := placementViews{
		replicas: make([][]int32, k),
		cached:   slices.Clone(p.CachedFiles()),
		uncached: p.UncachedCount(),
		slots:    p.ReplicaSlots(),
	}
	for j := 0; j < k; j++ {
		v.replicas[j] = slices.Clone(p.Replicas(j))
	}
	ix := p.TileIndex()
	if ix == nil {
		return v
	}
	v.segs = make([][]int32, k)
	v.tiles, v.starts = make([][]int32, k), make([][]int32, k)
	v.segEnd, v.dirCap = make([]int32, k), make([]int32, k)
	v.bits = make([][]uint64, k)
	for j := 0; j < k; j++ {
		tiles, starts, segEnd := ix.FileRuns(j)
		v.tiles[j], v.starts[j], v.segEnd[j] = slices.Clone(tiles), slices.Clone(starts), segEnd
		v.bits[j] = slices.Clone(ix.FileBits(j))
		if v.bits[j] == nil {
			v.segs[j] = slices.Clone(ix.Replicas(j))
		}
		v.dirCap[j] = ix.dirOff[j+1] - ix.dirOff[j]
	}
	return v
}

// diffPlacementViews names the first view on which got and want differ,
// or returns "" when they agree everywhere.
func diffPlacementViews(got, want placementViews) string {
	switch {
	case !slices.Equal(got.cached, want.cached):
		return fmt.Sprintf("CachedFiles %v, rebuild %v", got.cached, want.cached)
	case got.uncached != want.uncached:
		return fmt.Sprintf("UncachedCount %d, rebuild %d", got.uncached, want.uncached)
	case got.slots != want.slots:
		return fmt.Sprintf("ReplicaSlots %d, rebuild %d", got.slots, want.slots)
	}
	for j := range want.replicas {
		if !slices.Equal(got.replicas[j], want.replicas[j]) {
			return fmt.Sprintf("file %d: Replicas %v, rebuild %v", j, got.replicas[j], want.replicas[j])
		}
	}
	for j := range want.segs {
		switch {
		case !slices.Equal(got.bits[j], want.bits[j]):
			return fmt.Sprintf("file %d: FileBits %v, rebuild %v", j, got.bits[j], want.bits[j])
		case !slices.Equal(got.segs[j], want.segs[j]):
			return fmt.Sprintf("file %d: tile-major segment %v, rebuild %v", j, got.segs[j], want.segs[j])
		case !slices.Equal(got.tiles[j], want.tiles[j]) || !slices.Equal(got.starts[j], want.starts[j]) || got.segEnd[j] != want.segEnd[j]:
			return fmt.Sprintf("file %d: FileRuns (%v,%v,%d), rebuild (%v,%v,%d)", j,
				got.tiles[j], got.starts[j], got.segEnd[j], want.tiles[j], want.starts[j], want.segEnd[j])
		case got.dirCap[j] != want.dirCap[j]:
			return fmt.Sprintf("file %d: directory capacity %d, rebuild %d", j, got.dirCap[j], want.dirCap[j])
		}
	}
	return ""
}

// TestArriveNodeSpliceMatchesRebuild: after every node arrival, each
// reader view of the placement and its tile index must equal what a
// from-scratch buildReplicaIndex + buildTileIndex of the same placer
// produces — replica segments, the cached set, tile runs, dense
// bitmaps and the padded directory capacities. Churn splices run
// between arrivals, so the arrival lands on spliced (not freshly
// built) state. The cases cover first-time caching, sparse files
// crossing the dense threshold, full-library without-replacement
// joins, joins at both ends of the node range and joins into a tile
// the file had no run in.
func TestArriveNodeSpliceMatchesRebuild(t *testing.T) {
	const side = 8
	n := side * side
	g := grid.New(side, grid.Torus)
	var firstCache, crossed, fullLibrary, newRun, ends int
	for _, tc := range []struct {
		name     string
		k, m     int
		maxCap   int
		pop      dist.Popularity
		mode     Mode
		tileSide int // 0: no tile index
		caps     func(u int) int32
	}{
		{name: "zipf/plain/sparse-library", k: 400, m: 3, maxCap: 6, pop: dist.NewZipf(400, 1.2),
			caps: func(u int) int32 { return int32(1 + u%6) }},
		{name: "zipf/tiles/sparse-library", k: 400, m: 3, maxCap: 6, pop: dist.NewZipf(400, 1.2), tileSide: 2,
			caps: func(u int) int32 { return int32(1 + u%6) }},
		{name: "uniform/tiles/near-threshold", k: 30, m: 3, maxCap: 6, pop: dist.NewUniform(30), tileSide: 2,
			caps: func(u int) int32 { return int32(1 + u%6) }},
		{name: "uniform/coarse-tiles/capped-directory", k: 30, m: 3, maxCap: 6, pop: dist.NewUniform(30), tileSide: 4,
			caps: func(u int) int32 { return int32(1 + u%6) }},
		{name: "zipf/tiles/without-replacement-full-library", k: 16, m: 1, maxCap: 16, pop: dist.NewZipf(16, 0.8),
			mode: WithoutReplacement, tileSide: 2,
			caps: func(u int) int32 {
				if u%21 == 0 {
					return 16 // Cap(u) = K: the joiner caches the whole library
				}
				return int32(1 + u%2)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(0xA11, uint64(tc.k)))
			pl := NewPlacer(n, tc.m, tc.k)
			pl.EnableHetero(tc.maxCap)
			var tl *grid.Tiling
			if tc.tileSide > 0 {
				tl = g.NewTiling(tc.tileSide)
				pl.EnableTiles(tl)
			}
			pl.EnableChurn()
			caps := make([]int32, n)
			vacant := make([]bool, n)
			for u := range caps {
				caps[u] = tc.caps(u)
				vacant[u] = u%3 == 0 || u == n-1
			}
			// Node 0 joins first and node n-1 second; the rest in a
			// seeded order.
			queue := []int32{0, int32(n - 1)}
			for u := 1; u < n-1; u++ {
				if vacant[u] {
					queue = append(queue, int32(u))
				}
			}
			r.Shuffle(len(queue)-2, func(a, b int) { queue[2+a], queue[2+b] = queue[2+b], queue[2+a] })
			pl.SetHetero(caps, vacant)
			p := pl.Place(tc.pop, tc.mode, r)

			for _, u := range queue {
				stormBatch(p, vacant, r, 25)
				before := capturePlacementViews(p)
				pl.ArriveNode(u, tc.pop, tc.mode, r)
				vacant[u] = false
				got := capturePlacementViews(p)
				pl.buildReplicaIndex()
				if tl != nil {
					pl.buildTileIndex()
				}
				if d := diffPlacementViews(got, capturePlacementViews(p)); d != "" {
					t.Fatalf("arrival of node %d: %s", u, d)
				}

				if u == 0 || u == int32(n-1) {
					ends++
				}
				if tc.mode == WithoutReplacement && p.Cap(int(u)) >= tc.k {
					fullLibrary++
				}
				for _, f := range p.NodeFiles(int(u)) {
					if len(before.replicas[f]) == 0 {
						firstCache++
					}
					if tl == nil || before.bits[f] != nil {
						continue
					}
					if got.bits[f] != nil {
						crossed++
					} else if _, ok := slices.BinarySearch(before.tiles[f], tl.TileOf(u)); !ok {
						newRun++
					}
				}
			}
			checkAgainstRebuild(t, p, tl)
		})
	}
	if firstCache == 0 || crossed == 0 || fullLibrary == 0 || newRun == 0 || ends != 2*5 {
		t.Fatalf("coverage too thin: firstCache=%d crossed=%d fullLibrary=%d newRun=%d ends=%d",
			firstCache, crossed, fullLibrary, newRun, ends)
	}
}

// stormBatch applies up to events random legal migrations or swaps,
// never onto vacant nodes — the churn engine's event mix.
func stormBatch(p *Placement, vacant []bool, r *rand.Rand, events int) {
	n := p.N()
	for e := 0; e < events; e++ {
		if p.ReplicaSlots() == 0 {
			return
		}
		j, u := p.SlotReplica(r.IntN(p.ReplicaSlots()))
		v := int32(r.IntN(n))
		if vacant[v] {
			continue
		}
		if p.CanReplace(j, u, v) {
			p.ReplaceReplica(j, u, v)
			continue
		}
		if v == u || p.Has(int(v), j) || p.T(int(v)) == 0 {
			continue
		}
		vFiles := p.NodeFiles(int(v))
		if j2 := int(vFiles[r.IntN(len(vFiles))]); p.CanSwap(j, u, j2, v) {
			p.SwapReplicas(j, u, j2, v)
		}
	}
}

// BenchmarkArriveNode measures one node join at the paper-dynamic
// shape: n=4900, K=10⁴, M=10, power-law caps clamped to 8M, Zipf 1.2,
// the churn layout with the 7×7-tile index the engine picks for r=8. A
// quarter of the nodes start vacant and each op joins the next one;
// after joinsPerArm joins (about one paper-dynamic trial's worth) the
// vacancy is re-armed and the world re-placed off the clock, so every
// measured join lands on an early-trial index.
func BenchmarkArriveNode(b *testing.B) {
	const side, m, k, joinsPerArm = 70, 10, 10000, 40
	n := side * side
	g := grid.New(side, grid.Torus)
	pop := dist.NewZipf(k, 1.2)
	r := rand.New(rand.NewPCG(13, 0xA77))
	caps := make([]int32, n)
	for u := range caps {
		// Pareto(α=1.5, x_m=M/3), the engine's power-law profile.
		mu := int(math.Round(float64(m) / 3 * math.Pow(1-r.Float64(), -1/1.5)))
		caps[u] = int32(min(max(mu, 1), 8*m))
	}
	vacant := make([]bool, n)
	var joiners []int32
	for u := range vacant {
		if r.IntN(4) == 0 {
			joiners = append(joiners, int32(u))
		}
	}
	pl := NewPlacer(n, m, k)
	pl.EnableHetero(8 * m)
	pl.EnableTiles(g.NewTiling(7))
	pl.EnableChurn()
	arm := func() {
		for _, u := range joiners {
			vacant[u] = true
		}
		pl.SetHetero(caps, vacant)
		pl.Place(pop, WithReplacement, r)
	}
	arm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%joinsPerArm == 0 {
			b.StopTimer()
			arm()
			b.StartTimer()
		}
		pl.ArriveNode(joiners[i%joinsPerArm], pop, WithReplacement, r)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/join")
}
