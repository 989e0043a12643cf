package sim

// This file exports the shard-execution hooks the sweep orchestration
// layer (internal/sweep) builds on: the trial-block partition shared
// with Run/RunSeries, the block fold a remote worker executes, and a
// configuration validator cheap enough to run over a whole expanded
// grid before any world is compiled. Keeping the partition and the fold
// here — next to the engines that define them — is what lets a
// distributed sweep's merged artifact stay bit-identical to a
// single-process RunSeries run: both sides call the same code.

// BlockRange returns the half-open trial range [lo, hi) of block b when
// trials are partitioned into `blocks` contiguous blocks. It is the
// exact partition Run and RunSeries use for their parallel reduction,
// exported so a distributed sweep shards trials identically and its
// block-ordered merge reproduces the single-host merge bit for bit.
// blocks must be in [1, trials] and b in [0, blocks).
func BlockRange(trials, blocks, b int) (lo, hi int) {
	return trials * b / blocks, trials * (b + 1) / blocks
}

// RunBlock executes the contiguous trial block [lo, hi) and returns its
// aggregate, folding results in ascending trial order — the same fold a
// Run/RunSeries worker performs for that block, so the returned
// Aggregate is bit-identical to the corresponding in-process partial.
// Safe for concurrent use (runners are pooled internally).
func (w *World) RunBlock(lo, hi uint64) Aggregate {
	var agg Aggregate
	w.pooled(func(r *Runner) {
		for t := lo; t < hi; t++ {
			agg.Add(r.RunTrial(t))
		}
	})
	return agg
}

// Validate reports whether cfg is a well-formed configuration, without
// compiling a world (no lattice or alias-table allocation). The sweep
// coordinator runs it over every expanded grid point so a bad spec
// fails fast at submission instead of on a remote worker.
func Validate(cfg Config) error { return cfg.validate() }
