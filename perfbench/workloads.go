package main

import (
	"time"

	"repro/internal/sim"
)

// batchPairs is the size of one served batch: the pairs of one
// POST /v1/place body.
const batchPairs = 256

// conns is the number of concurrent HTTP connections of the open-loop
// diagnostic, matching the two cores the workloads were sized for. The
// closed loop uses one connection, so that the process CPU time spent
// while a batch is in flight belongs to that batch.
const conns = 2

// era is the placement era every served phase answers from.
const era = 0

// engineChunk is the request-pipeline chunk of every full-size world. It
// equals the engine's default (sim.defaultChunk) and is set explicitly
// because the traced replay cuts the request stream at the same
// boundaries.
const engineChunk = 1024

// workload is one world the benchmark drives through both public fronts:
// the trial engine (sim.Runner.RunTrial) and the HTTP service
// (serve.NewServer on a loopback listener).
type workload struct {
	name string
	cfg  sim.Config
	// servePrimary marks the workload whose subject is the HTTP front:
	// most of its window goes to the served phase, and its max_load and
	// hop_cost come from served decisions instead of trial Results.
	servePrimary bool
	// openStep is how long the open-loop diagnostic offers each rate; it
	// runs only on the served workload's traced run.
	openStep time.Duration
}

// trialShare is the fraction of the measuring window the trial phase
// gets; the HTTP phase gets the rest.
func (wl workload) trialShare() float64 {
	if wl.servePrimary {
		return 0.25
	}
	return 0.5
}

// workloads returns the four benchmark workloads. tiny shrinks every
// world to a few hundred nodes (with small chunks, so barriers still
// run) for the smoke test.
func workloads(tiny bool) []workload {
	paper := sim.Config{
		Side: 70, K: 10000, M: 10,
		Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 1.2},
		Strategy:   sim.StrategySpec{Kind: sim.TwoChoices, Radius: 8},
		Index:      sim.IndexTiles,
		Streams:    sim.StreamsSplit,
		Chunk:      engineChunk,
	}
	if tiny {
		paper.Side, paper.K, paper.M = 12, 300, 3
		paper.Strategy.Radius = 3
		paper.Chunk = 64
	}

	dynamic := paper
	dynamic.MissPolicy = sim.MissEscalate
	dynamic.Churn, dynamic.ChurnRate = sim.ChurnReplicas, 0.5
	dynamic.Faults, dynamic.FaultRate, dynamic.RecoverRate = sim.FaultsCrash, 0.01, 0.005
	dynamic.Hetero, dynamic.Profile, dynamic.ArrivalRate = sim.HeteroArrival, sim.ProfilePowerLaw, 0.01

	wide := paper
	wide.Side = 1000
	wide.Metrics = sim.MetricsStreaming
	wide.Workers, wide.Shard = 2, sim.ShardDeterministic
	if tiny {
		wide.Side = 16
	}

	served := sim.Config{
		Side: 32, K: 2000, M: 4,
		Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 0.8},
		Strategy:   sim.StrategySpec{Kind: sim.TwoChoices, Radius: 6},
		Index:      sim.IndexTiles,
		Streams:    sim.StreamsSplit,
		Chunk:      engineChunk,
	}
	if tiny {
		served.Side, served.K, served.M = 8, 100, 2
		served.Strategy.Radius = 3
		served.Chunk = 64
	}

	step := time.Second
	if tiny {
		step = 50 * time.Millisecond
	}
	return []workload{
		{name: "paper-static", cfg: paper},
		{name: "paper-dynamic", cfg: dynamic},
		{name: "wide-p2", cfg: wide},
		{name: "serve-http", cfg: served, servePrimary: true, openStep: step},
	}
}

// lookup returns the named workload.
func lookup(name string, tiny bool) (workload, bool) {
	for _, wl := range workloads(tiny) {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}
