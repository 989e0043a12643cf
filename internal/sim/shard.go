package sim

import (
	"repro/internal/core"
	"repro/internal/dist"
)

// This file is the sharded fill of the trial pipeline (Config.Workers >
// 0): each chunk's generate and assign work runs on P workers instead of
// one, while everything order-sensitive — load application, accounting,
// the arrival/fault/churn barrier — stays with the coordinator.
//
// Execution model. Each pipeline chunk is cut into fixed 64-request
// granules (shardGranule); shard s owns the contiguous granule range
// [G·s/P, G·(s+1)/P). A granule is the unit of RNG determinism: its
// origin, file and assignment streams are derived from the granule's
// global first-request index (xrand Split by label, then the trial
// stream), so the draws a request sees depend only on (cfg, trial,
// request index) — never on P or on scheduling. Workers generate and
// assign their granules concurrently, writing disjoint slices of the
// shared chunk record buffers; once they are done the coordinator
// applies the recorded load deltas in request order (ShardDeterministic)
// and runs the pipeline's shared account pass and chunk barrier, as for
// every fill — then releases the workers into the next chunk.
//
// Barrier protocol. The coordinator runs shard 0 itself and parks the
// P−1 worker goroutines on per-worker start channels between chunks.
// Publishing the chunk descriptor before the start signal and collecting
// workers through a WaitGroup before merging gives the two
// happens-before edges that make the shared buffers race-free: workers
// never read a descriptor before it is written, and the coordinator
// never reads records before their writers are done. Workers are
// spawned per trial (they exit after the last chunk), which keeps the
// steady-state allocation bill at the O(P) goroutine spawns — the chunk
// loop itself allocates nothing.
//
// Determinism. ShardDeterministic strategies read the frozen base load
// vector, which no one writes during a chunk, so assignments within a
// chunk are a pure function of the granule streams: results are
// bit-identical for every P ≥ 1 (pinned by TestGoldenMatrixParallel and
// the P-sweep property tests). This batched-visibility process is
// deliberately a *distinct seeded process* from the sequential engine —
// the same convention as StreamsSplit and IndexTiles, each frozen by
// its own golden matrix, with Workers = 0 keeping the sequential
// goldens bit-identical. ShardRacy swaps the frozen snapshot for one
// shared ballsbins.AtomicLoads: reads are live but unsynchronized with
// other workers' in-flight adds (balls into bins with outdated
// information), so assignment outcomes are scheduling-dependent while
// generation stays on the deterministic granule streams.

// shardGranule is the fixed request-count unit of shard ownership and
// RNG stream derivation: small enough to balance shards within a
// 1024-request chunk at P = 8, large enough that per-granule reseeding
// (three PCG seeds per granule) is noise. Part of the seeded process
// frozen by the parallel golden matrix.
const shardGranule = 64

// shardState is one worker's private scratch: its strategy instance
// (strategies carry per-instance buffers and are not concurrency-safe),
// its three granule-reseeded generators and, in racy mode, the running
// maximum over its atomic Add returns.
type shardState struct {
	strat                core.Strategy
	origin, file, assign reseedRand
	maxSeen              int
}

// fillSharded is the sharded fill of the chunk [base, base+c): publish
// the chunk descriptor, release the workers, run shard 0 on the
// coordinator and wait for the rest. Under ShardDeterministic the
// coordinator then applies the chunk's load deltas in request order, so
// the base vector's running max tracks exactly as in the sequential
// engine; ShardRacy workers already added into the atomic vector.
func (r *Runner) fillSharded(base, c int) {
	r.shardBase, r.shardC = base, c
	p := len(r.shards)
	r.doneWG.Add(p - 1)
	for s := 1; s < p; s++ {
		r.startCh[s] <- struct{}{}
	}
	r.runShard(0)
	r.doneWG.Wait()
	// Barrier: the workers are parked; the coordinator owns every shared
	// structure until the next start signal.
	if r.atomicLoads == nil {
		for i := 0; i < c; i++ {
			r.loads.Add(int(r.servers[i]))
		}
	}
}

// shardWorker is the goroutine body of shard s: one barrier round per
// chunk, exiting after the trial's last chunk.
func (r *Runner) shardWorker(s, nChunks int) {
	for i := 0; i < nChunks; i++ {
		<-r.startCh[s]
		r.runShard(s)
		r.doneWG.Done()
	}
}

// runShard processes shard s's granules of the current chunk: per
// granule, reseed the three streams from the granule label (its global
// first-request index), batch-generate the ids, then assign each
// request against the runner's load view, recording results into the
// shard's disjoint slice of the chunk buffers.
func (r *Runner) runShard(s int) {
	w := r.w
	st := &r.shards[s]
	t, base, c := r.shardT, r.shardBase, r.shardC
	p := len(r.shards)
	g := (c + shardGranule - 1) / shardGranule
	n := w.g.N()
	pop, view, atomic := r.pop, r.view, r.atomicLoads
	for gi := g * s / p; gi < g*(s+1)/p; gi++ {
		lo := gi * shardGranule
		hi := min(lo+shardGranule, c)
		label := uint64(base + lo)
		originRNG := st.origin.stream(w.originSrc.Split(label), t)
		fileRNG := st.file.stream(w.fileSrc.Split(label), t)
		assignRNG := st.assign.stream(w.assignSrc.Split(label), t)
		dist.RequestBatch(originRNG, fileRNG, n, pop, r.origins[lo:hi], r.files[lo:hi])
		for i := lo; i < hi; i++ {
			req := core.Request{Origin: r.origins[i], File: r.files[i]}
			a := st.strat.Assign(req, view, assignRNG)
			if atomic != nil {
				if v := atomic.Add(int(a.Server)); v > st.maxSeen {
					st.maxSeen = v
				}
			}
			r.servers[i] = a.Server
			r.hops[i] = a.Hops
			r.flags[i] = flagsOf(a)
		}
	}
}
