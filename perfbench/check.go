package main

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/serve"
	"repro/internal/sim"
)

// tally counts the operations a run attempted and the ones that failed a
// correctness check. An operation is one trial (untraced or traced) or
// one served batch.
type tally struct {
	attempted, failed int
	samples           []string // the first few failure messages
}

// maxSamples bounds the failure messages a tally keeps for the report.
const maxSamples = 5

// op records one operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.samples) < maxSamples {
		t.samples = append(t.samples, err.Error())
	}
}

// add folds another tally into t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, s := range o.samples {
		if len(t.samples) < maxSamples {
			t.samples = append(t.samples, s)
		}
	}
}

// boundedRadius returns the strategy's proximity radius and whether it
// bounds the search (a negative or diameter-wide radius does not).
func boundedRadius(cfg sim.Config, g *grid.Grid) (int, bool) {
	r := cfg.Strategy.Radius
	return r, r >= 0 && r < g.Diameter()
}

// checkTrial verifies the invariants every trial Result must satisfy:
// the pigeonhole bound on the maximum load, at most one miss outcome per
// request, and a mean cost no longer than the lattice diameter.
func checkTrial(res sim.Result, g *grid.Grid) error {
	n := g.N()
	if floor := (res.Requests + n - 1) / n; res.MaxLoad < floor {
		return fmt.Errorf("trial: MaxLoad %d below ⌈%d/%d⌉ = %d", res.MaxLoad, res.Requests, n, floor)
	}
	if res.Escalated+res.Backhaul > res.Requests {
		return fmt.Errorf("trial: Escalated %d + Backhaul %d exceed %d requests", res.Escalated, res.Backhaul, res.Requests)
	}
	if res.MeanCost < 0 || res.MeanCost > float64(g.Diameter()) {
		return fmt.Errorf("trial: MeanCost %v outside [0, diameter %d]", res.MeanCost, g.Diameter())
	}
	return nil
}

// decisionChecker verifies one traced decision of the trial replay
// against the placement and liveness mask the strategy observed.
type decisionChecker struct {
	g       *grid.Grid
	p       *cache.Placement
	live    *cache.Liveness // nil when the world has no faults
	r       int
	bounded bool
}

// check returns an error when assignment a of req is not a valid answer.
// A backhauled request is served upstream at its origin, so it is
// exempt from the placement, radius and liveness checks.
func (c decisionChecker) check(req core.Request, a core.Assignment) error {
	u, s := int(req.Origin), int(a.Server)
	if s < 0 || s >= c.g.N() {
		return fmt.Errorf("decision: server %d out of range", s)
	}
	if d := c.g.Dist(u, s); int(a.Hops) != d {
		return fmt.Errorf("decision: %d→%d reports %d hops, distance is %d", u, s, a.Hops, d)
	}
	if a.Backhaul {
		return nil
	}
	if !c.p.Has(s, int(req.File)) {
		return fmt.Errorf("decision: server %d does not hold file %d", s, req.File)
	}
	if c.bounded && !a.Escalated && int(a.Hops) > c.r {
		return fmt.Errorf("decision: %d hops exceed radius %d without escalation", a.Hops, c.r)
	}
	if c.live != nil && !c.live.Live(s) {
		return fmt.Errorf("decision: server %d is dead", s)
	}
	return nil
}

// servedChecker verifies served decisions. On a quiesced world the
// placement never changes, so p is the placement every decision
// observed; on a dynamic world p is nil and only the geometric checks
// apply, because the placement moves between batches.
type servedChecker struct {
	g       *grid.Grid
	p       *cache.Placement
	r       int
	bounded bool
}

// check returns an error when d is not a valid answer to q.
func (c servedChecker) check(q serve.Pair, d serve.Decision) error {
	u, s := int(q.User), int(d.Node)
	if s < 0 || s >= c.g.N() {
		return fmt.Errorf("served: node %d out of range", s)
	}
	if dist := c.g.Dist(u, s); int(d.Hops) != dist {
		return fmt.Errorf("served: %d→%d reports %d hops, distance is %d", u, s, d.Hops, dist)
	}
	if c.p == nil {
		return nil
	}
	j := int(q.File)
	if !c.p.Has(s, j) {
		return fmt.Errorf("served: node %d does not hold file %d", s, j)
	}
	if c.bounded && int(d.Hops) > c.r && c.replicaWithin(u, j) {
		return fmt.Errorf("served: %d hops exceed radius %d although a replica of file %d lies within it", d.Hops, c.r, j)
	}
	return nil
}

// replicaWithin reports whether some replica of file j lies within the
// radius of node u.
func (c servedChecker) replicaWithin(u, j int) bool {
	for _, v := range c.p.Replicas(j) {
		if c.g.Dist(u, int(v)) <= c.r {
			return true
		}
	}
	return false
}

// checkBatch verifies one served response against its request.
func (c servedChecker) checkBatch(pairs []serve.Pair, ds []serve.Decision) error {
	if len(ds) != len(pairs) {
		return fmt.Errorf("served: %d decisions for %d pairs", len(ds), len(pairs))
	}
	var errs []string
	for i, q := range pairs {
		if err := c.check(q, ds[i]); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d bad decisions, first: %s", len(errs), errs[0])
	}
	return nil
}

// sameResult reports the first field in which a traced replay differs
// from the untraced trial: the paper's two metrics, the miss and retry
// counters, and every event counter.
func sameResult(got, want sim.Result) error {
	type field struct {
		name      string
		got, want any
	}
	fields := []field{
		{"MaxLoad", got.MaxLoad, want.MaxLoad},
		{"MeanCost", got.MeanCost, want.MeanCost},
		{"Escalated", got.Escalated, want.Escalated},
		{"Backhaul", got.Backhaul, want.Backhaul},
		{"Retried", got.Retried, want.Retried},
		{"Uncached", got.Uncached, want.Uncached},
		{"ChurnEvents", got.ChurnEvents, want.ChurnEvents},
		{"ChurnSkipped", got.ChurnSkipped, want.ChurnSkipped},
		{"FaultEvents", got.FaultEvents, want.FaultEvents},
		{"RecoverEvents", got.RecoverEvents, want.RecoverEvents},
		{"FaultSkipped", got.FaultSkipped, want.FaultSkipped},
		{"DeadNodes", got.DeadNodes, want.DeadNodes},
		{"ArrivalEvents", got.ArrivalEvents, want.ArrivalEvents},
		{"ArrivalSkipped", got.ArrivalSkipped, want.ArrivalSkipped},
		{"Vacant", got.Vacant, want.Vacant},
	}
	var diff []string
	for _, f := range fields {
		if f.got != f.want {
			diff = append(diff, fmt.Sprintf("%s %v≠%v", f.name, f.got, f.want))
		}
	}
	if len(diff) > 0 {
		return fmt.Errorf("replay differs from the untraced trial: %s", strings.Join(diff, ", "))
	}
	return nil
}
