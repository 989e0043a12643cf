package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/dist"
)

// This file implements node arrival — the cache layer of the engine's
// HeteroArrival regime. A vacant node (placed empty by SetHetero's
// vacancy mask) joins the network mid-trial: its forward slab is filled
// with a fresh draw from the placement profile and the node is spliced
// into every derived structure in place. Arrivals are the one mutation
// that grows replica segments (|S_j| is invariant under ReplaceReplica
// and SwapReplicas), so the splice shifts whole arena blocks: one
// backward pass per arena moves each file's segment right by the number
// of the joiner's files before it, opening one slot at the end of every
// segment the joiner enters, and the offsets take the running shift in
// one O(K) pass. The cost is a memmove of the replica arenas past the
// joiner's first file, O(Σ|S_j|) words, with no per-node scatter. The
// result is exactly what a from-scratch rebuild lays out; the engine
// triggers at most a handful of arrivals per trial, all at chunk
// barriers.

// ArriveNode fills vacant node u with up to Cap(u) files drawn from pop
// (the same per-node draw a from-scratch build performs) and splices u
// into the replica CSR and, when present, the tile index (see
// spliceArrival). Every reader view — replica segments, the cached set,
// tile runs, dense bitmaps and the capacity-padded directory — ends up
// equal to a rebuild of the grown placement. Allocation-free; the
// Placement and TileIndex pointers returned by the preceding Place stay
// valid because the splice rewrites their backing arrays. It panics
// unless the Placer is hetero- and churn-enabled and node u is
// currently empty.
func (pl *Placer) ArriveNode(u int32, pop dist.Popularity, mode Mode, r *rand.Rand) {
	p := &pl.p
	if !pl.hetero {
		panic("cache: ArriveNode needs EnableHetero")
	}
	if !pl.mutable {
		panic("cache: ArriveNode needs a churn-enabled placement (Placer.EnableChurn)")
	}
	if p.lens[u] != 0 {
		panic(fmt.Sprintf("cache: ArriveNode: node %d is not vacant (t=%d)", u, p.lens[u]))
	}
	base, want := p.slabBase(int(u)), p.Cap(int(u))
	pl.stamp++
	ln := 0
	switch mode {
	case WithReplacement:
		span := pl.draws[base : base+want]
		dist.SampleBatch(pop, r, span)
		for _, f := range span {
			if pl.mark[f] != pl.stamp {
				pl.mark[f] = pl.stamp
				p.files[base+ln] = f
				ln++
			}
		}
	case WithoutReplacement:
		if want >= pl.k {
			for j := int32(0); j < int32(pl.k); j++ {
				p.files[base+ln] = j
				ln++
			}
		} else {
			tries := 0
			for ln < want {
				f := int32(pop.Sample(r))
				if pl.mark[f] != pl.stamp {
					pl.mark[f] = pl.stamp
					p.files[base+ln] = f
					ln++
				}
				tries++
				if tries > 64*want && ln < want {
					ln = pl.fillRemainderMutable(base, ln, want, r)
					break
				}
			}
		}
	default:
		panic(fmt.Sprintf("cache: unknown mode %v", mode))
	}
	slices.Sort(p.files[base : base+ln])
	p.lens[u] = int32(ln)
	if pl.vacant != nil {
		pl.vacant[u] = false
	}
	pl.spliceArrival(u)
}

// spliceArrival inserts node u, whose slab now holds its sorted file
// list, into the replica CSR and the tile index. Everything that reads
// segment widths (the dense-crossing check, the directory growth) runs
// before the CSR offsets move. A sparse file reaching the dense
// threshold changes class, which only the from-scratch tile build
// lays out; that rare case splices the CSR and rebuilds the index.
func (pl *Placer) spliceArrival(u int32) {
	p, ix := &pl.p, pl.p.tix
	files := p.nodeSpan(int(u))
	if ix != nil && ix.crossesDense(files, denseBitThreshold(pl.n)) {
		ix = nil
	}
	total := p.repOff[pl.k]
	p.nodes = p.nodes[:int(total)+len(files)]
	growSegments(p.nodes, p.repOff, files)
	if ix != nil {
		ix.growDirectories(files)
		ix.nodes = ix.nodes[:len(p.nodes)]
		growSegments(ix.nodes, p.repOff, files)
	}
	for i, f := range files {
		next := int32(pl.k)
		if i+1 < len(files) {
			next = files[i+1]
		}
		addAll(p.repOff[f+1:next+1], int32(i+1))
	}

	fresh := 0
	for _, f := range files {
		seg := p.nodes[p.repOff[f]:p.repOff[f+1]]
		last := len(seg) - 1
		i, _ := slices.BinarySearch(seg[:last], u)
		copy(seg[i+1:], seg[i:last])
		seg[i] = u
		if last == 0 {
			fresh++
		}
	}
	if fresh > 0 {
		p.cachedFiles = mergeFresh(p.cachedFiles, files, p.repOff, fresh)
	}

	switch {
	case ix != nil:
		for _, f := range files {
			if words := ix.FileBits(int(f)); words != nil {
				words[u>>6] |= 1 << (uint(u) & 63)
			} else {
				ix.insertRun(int(f), u, p.repOff[f+1]-1)
			}
		}
	case pl.tiling != nil:
		pl.buildTileIndex()
	}
}

// growSegments opens one slot at the end of each listed file's segment
// of a replica arena laid out by repOff (still the pre-arrival offsets):
// a backward pass moves the block between consecutive listed files'
// segment ends right by the number of listed files up to it. The arena
// must already be long enough for the grown data.
func growSegments(arena, repOff, files []int32) {
	hi := repOff[len(repOff)-1]
	for i := len(files) - 1; i >= 0; i-- {
		lo := repOff[files[i]+1]
		copy(arena[lo+int32(i+1):hi+int32(i+1)], arena[lo:hi])
		hi = lo
	}
}

// addAll adds d to every element of s.
func addAll(s []int32, d int32) {
	for i := range s {
		s[i] += d
	}
}

// mergeFresh merges the listed files that now have exactly one replica
// — fresh of them, cached for the first time — into the sorted cached
// set, backward in place.
func mergeFresh(cached, files, repOff []int32, fresh int) []int32 {
	w := len(cached) + fresh
	old := len(cached)
	cached = cached[:w]
	for i := len(files) - 1; fresh > 0; i-- {
		f := files[i]
		if repOff[f+1]-repOff[f] != 1 {
			continue
		}
		for old > 0 && cached[old-1] > f {
			w--
			old--
			cached[w] = cached[old]
		}
		w--
		cached[w] = f
		fresh--
	}
	return cached
}
