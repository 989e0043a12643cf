package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ballsbins"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
)

// tinyWorld compiles the tiny paper-static world.
func tinyWorld(t *testing.T) *sim.World {
	t.Helper()
	wl, _ := lookup("paper-static", true)
	wl.cfg.Seed = 7
	w, err := sim.Compile(wl.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCheckTrialCountsTamperedResults(t *testing.T) {
	w := tinyWorld(t)
	res := w.RunTrial(1)
	if err := checkTrial(res, w.Grid()); err != nil {
		t.Fatalf("untampered trial: %v", err)
	}
	tampered := map[string]func(*sim.Result){
		"max load below the pigeonhole bound": func(r *sim.Result) { r.MaxLoad = 0 },
		"more misses than requests":           func(r *sim.Result) { r.Escalated, r.Backhaul = r.Requests, 1 },
		"cost beyond the diameter":            func(r *sim.Result) { r.MeanCost = float64(w.Grid().Diameter()) + 0.5 },
	}
	var tl tally
	tl.op(checkTrial(res, w.Grid()))
	for name, tamper := range tampered {
		r := res
		tamper(&r)
		err := checkTrial(r, w.Grid())
		if err == nil {
			t.Errorf("%s: not detected", name)
		}
		tl.op(err)
	}
	if tl.attempted != 1+len(tampered) || tl.failed != len(tampered) {
		t.Fatalf("tally %d attempted / %d failed, want %d / %d", tl.attempted, tl.failed, 1+len(tampered), len(tampered))
	}
}

// otherNode returns a node that does not hold file j.
func otherNode(t *testing.T, holds func(u int) bool, n int) int {
	t.Helper()
	for u := 0; u < n; u++ {
		if !holds(u) {
			return u
		}
	}
	t.Fatal("every node holds the file")
	return -1
}

func TestDecisionCheckerCatchesBadDecisions(t *testing.T) {
	w := tinyWorld(t)
	s := w.Snapshot(1)
	strat := s.NewStrategy()
	loads := ballsbins.NewLoads(w.N())
	rng := rand.New(rand.NewPCG(1, 2))
	chk := decisionChecker{g: w.Grid(), p: s.Placement(), live: s.Liveness()}
	chk.r, chk.bounded = boundedRadius(w.Config(), w.Grid())

	req := core.Request{Origin: 5, File: 0}
	a := strat.Assign(req, loads, rng)
	if err := chk.check(req, a); err != nil {
		t.Fatalf("engine decision rejected: %v", err)
	}
	var tl tally
	wrongHops := a
	wrongHops.Hops++
	tl.op(chk.check(req, wrongHops))
	lacking := a
	lacking.Server = int32(otherNode(t, func(u int) bool { return s.Placement().Has(u, 0) }, w.N()))
	lacking.Hops = int32(w.Grid().Dist(int(req.Origin), int(lacking.Server)))
	tl.op(chk.check(req, lacking))
	if tl.failed != 2 {
		t.Fatalf("%d of 2 bad decisions counted as failed: %v", tl.failed, tl.samples)
	}
}

func TestServedCheckerCatchesBadDecisions(t *testing.T) {
	w := tinyWorld(t)
	eng := serve.New(w, era)
	defer eng.Close()
	ctx := eng.Get()
	pairs := []serve.Pair{{User: 3, File: 0}, {User: 40, File: 1}}
	out := make([]serve.Decision, len(pairs))
	ctx.PlaceBatch(pairs, out)
	eng.Put(ctx)

	p := eng.Snapshot().Placement()
	chk := servedChecker{g: w.Grid(), p: p}
	chk.r, chk.bounded = boundedRadius(w.Config(), w.Grid())
	if err := chk.checkBatch(pairs, out); err != nil {
		t.Fatalf("served batch rejected: %v", err)
	}

	var tl tally
	wrongHops := append([]serve.Decision(nil), out...)
	wrongHops[1].Hops++
	tl.op(chk.checkBatch(pairs, wrongHops))
	lacking := append([]serve.Decision(nil), out...)
	node := otherNode(t, func(u int) bool { return p.Has(u, 0) }, w.N())
	lacking[0] = serve.Decision{Node: int32(node), Hops: int32(w.Grid().Dist(3, node))}
	tl.op(chk.checkBatch(pairs, lacking))
	tl.op(chk.checkBatch(pairs, out[:1]))
	if tl.attempted != 3 || tl.failed != 3 {
		t.Fatalf("tally %d attempted / %d failed, want 3 / 3: %v", tl.attempted, tl.failed, tl.samples)
	}
}

func TestSameResultNamesTheDifference(t *testing.T) {
	w := tinyWorld(t)
	want := w.RunTrial(2)
	if err := sameResult(want, want); err != nil {
		t.Fatal(err)
	}
	got := want
	got.MeanCost += 1e-12
	if err := sameResult(got, want); err == nil || !strings.Contains(err.Error(), "MeanCost") {
		t.Fatalf("sameResult = %v, want a MeanCost difference", err)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the reports against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeAllWorkloads runs every workload, including any BENCHMARK.json
// leaves out, on its tiny world in both modes and checks the report: no
// failed operation, and exactly the metrics BENCHMARK.json declares, with
// their units.
func TestSmokeAllWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, ok := lookup(wl.Name, false); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark lacks", wl.Name)
		}
	}
	for _, wl := range workloads(true) {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := runWorkload(wl, 5, 300*time.Millisecond, trace == "1", "..", &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("exit %d, last line not a report: %v\n%s%s", code, err, stdout.String(), stderr.String())
				}
				if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("exit %d, report %+v\n%s", code, rep, stdout.String())
				}
				var names []string
				for _, m := range want {
					names = append(names, m.Name)
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
					}
				}
				if len(rep.Metrics) != len(want) {
					var extra []string
					for k := range rep.Metrics {
						if !slices.Contains(names, k) {
							extra = append(extra, k)
						}
					}
					sort.Strings(extra)
					t.Errorf("metrics not in BENCHMARK.json: %v", extra)
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such", "--seconds", "1"},
		{"--workload", "serve-http", "--seconds", "0"},
		{"--workload", "serve-http", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("run(%v) printed a report", args)
		}
	}
}

func TestSpeedMeterScalesByNearbyCalibrations(t *testing.T) {
	m := &speedMeter{}
	for i := 0; i < 20; i++ { // one calibration every 100 ms; the host halves its speed at 1 s
		m.at = append(m.at, time.Duration(i)*100*time.Millisecond)
		took := 2 * time.Millisecond
		if i >= 10 {
			took = 4 * time.Millisecond
		}
		m.took = append(m.took, took)
	}
	for _, c := range []struct {
		at   time.Duration
		took time.Duration
	}{
		{300 * time.Millisecond, 2 * time.Millisecond},
		{1700 * time.Millisecond, 4 * time.Millisecond},
		{10 * time.Second, 4 * time.Millisecond}, // beyond the last: the nearest one
	} {
		want := float64(calRef) / float64(c.took)
		if got := m.scale(c.at); got != want {
			t.Errorf("scale(%v) = %v, want %v", c.at, got, want)
		}
	}
	ss := m.scaled([]sample{{at: 300 * time.Millisecond, cpu: 4 * time.Millisecond}})
	if want := durationMS(calRef) * 2; ss[0] != want {
		t.Errorf("a sample twice the sort's time at the reference speed reads %v ms, want %v", ss[0], want)
	}
}
