package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/sim"
)

// setupReps is how many stacks a run measures on. The measuring window
// is split evenly over them, so one run samples several heap layouts and
// connection placements instead of one.
const setupReps = 6

// setupSamples is how many set-ups setup_s is the median of: the
// setupReps stacks, and before them stacks that are torn down as soon as
// they are up. A set-up takes 4–50 ms, too little for the median of six
// to agree from run to run.
const setupSamples = 24

// stack is one fully set-up workload: the compiled world, a runner that
// has run its warm-up trial, and the service with its input batches.
type stack struct {
	w      *sim.World
	runner *sim.Runner
	svc    *service
	bs     batchSet
}

// buildStack sets the workload up and returns it with its set-up time
// at the reference speed, in seconds: Compile, NewRunner and the warm-up
// trial, then serve.New, the listener and the first answered batch.
// Generating and encoding the input batches and checking the first
// answer is the client's work and stays off the clock.
func buildStack(cfg sim.Config, m *speedMeter, tl *tally) (*stack, float64, error) {
	var (
		w   *sim.World
		r   *sim.Runner
		res sim.Result
		svc *service
		err error
	)
	build := m.measure(func() {
		if w, err = sim.Compile(cfg); err != nil {
			return
		}
		r = w.NewRunner()
		res = r.RunTrial(0)
		svc, err = startService(w)
	})
	if err != nil {
		return nil, 0, err
	}
	tl.op(checkTrial(res, w.Grid()))

	bs, err := newBatchSet(svc)
	if err != nil {
		svc.close()
		return nil, 0, err
	}
	var c conn
	first := m.measure(func() { err = svc.post(bs.bodies[0], &c.body) })
	if err == nil {
		_, err = c.decode(c.body.Bytes(), bs.pairs[0], svc.checker())
	}
	tl.op(err)
	setup := m.scaled([]sample{build, first})
	return &stack{w: w, runner: r, svc: svc, bs: bs}, (setup[0] + setup[1]) / 1000, nil
}

// trialPhase runs the next trials through the warmed runner until d has
// passed (and at least minTrials), checking every Result, and returns
// one sample per trial. It adds each trial's L and C to sumL and sumC.
func trialPhase(st *stack, d time.Duration, next *uint64, m *speedMeter, tl *tally, sumL, sumC *float64) []sample {
	const minTrials = 3
	var out []sample
	deadline := time.Now().Add(d)
	for n := 0; n < minTrials || time.Now().Before(deadline); n++ {
		*next++
		var res sim.Result
		out = append(out, m.measure(func() { res = st.runner.RunTrial(*next) }))
		tl.op(checkTrial(res, st.w.Grid()))
		*sumL += float64(res.MaxLoad)
		*sumC += res.MeanCost
	}
	return out
}

// tailGroup is the number of consecutive batches each tail percentile is
// taken over: the 99th percentile of a group has ten
// samples beyond it. batch_ms_p99 is the median of the groups' values, so
// one bad stretch moves one group, not the run.
const tailGroup = 1000

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(wl workload, seed uint64, window time.Duration, log io.Writer) (map[string]metric, *tally, error) {
	cfg := wl.cfg
	cfg.Seed = seed
	tl := &tally{}
	segment := window / setupReps
	trialWindow := time.Duration(wl.trialShare() * float64(segment))

	m := newSpeedMeter()
	var setups []float64
	var trials, sends []sample
	var sumL, sumC float64
	var next uint64
	var load servedLoad
	for len(setups) < setupSamples-setupReps {
		st, setup, err := buildStack(cfg, m, tl)
		if err != nil {
			return nil, nil, err
		}
		if err := st.svc.close(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup)
		runtime.GC()
	}
	for i := 0; i < setupReps; i++ {
		st, setup, err := buildStack(cfg, m, tl)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup)
		trials = append(trials, trialPhase(st, trialWindow, &next, m, tl, &sumL, &sumC)...)
		l := newServedLoad(st.w)
		sends = append(sends, closedLoop(st.svc, st.bs, segment-trialWindow, m, tl, l)...)
		load.merge(l)
		if err := st.svc.close(); err != nil {
			return nil, nil, err
		}
		// Release this stack before the next one is built, so set-up
		// times and mem_mb do not depend on when the collector runs.
		runtime.GC()
	}

	maxLoad, hopCost := sumL/float64(len(trials)), sumC/float64(len(trials))
	if wl.servePrimary {
		maxLoad, hopCost = load.maxLoad(), load.hopCost()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	trialMS := m.scaled(trials)
	trialCPU, trialWall := split(trials)
	batchMS := m.scaled(sends)
	batchCPU, batchWall := split(sends)
	var tails []float64
	for i := 0; i+tailGroup <= len(batchMS); i += tailGroup {
		tails = append(tails, quantile(batchMS[i:i+tailGroup], 0.99))
	}
	if len(tails) == 0 {
		tails = []float64{quantile(batchMS, 0.99)}
	}
	fmt.Fprintf(log, "host speed: the calibration sort took %.4f ms of CPU at the median, %.4f–%.4f ms (p10–p90) over %d calibrations; reference %.4f ms\n",
		durationMS(quantileDur(m.took, 0.5)), durationMS(quantileDur(m.took, 0.1)), durationMS(quantileDur(m.took, 0.9)), len(m.took), durationMS(calRef))
	fmt.Fprintf(log, "trials: %d  at the reference speed p50 %.4f ms  p90 %.4f ms  p99 %.4f ms; CPU p50 %.4f ms; wall p50 %.4f ms  p99 %.4f ms\n",
		len(trialMS), quantile(trialMS, 0.5), quantile(trialMS, 0.9), quantile(trialMS, 0.99),
		quantile(trialCPU, 0.5), quantile(trialWall, 0.5), quantile(trialWall, 0.99))
	fmt.Fprintf(log, "batches: %d over 1 connection  at the reference speed p50 %.4f ms  p99 %.4f ms (all), %.4f ms (median of %d groups of %d); CPU p50 %.4f ms  p99 %.4f ms; wall p50 %.4f ms  p99 %.4f ms\n",
		len(batchMS), quantile(batchMS, 0.5), quantile(batchMS, 0.99), quantile(tails, 0.5), len(tails), tailGroup, quantile(batchCPU, 0.5), quantile(batchCPU, 0.99),
		quantile(batchWall, 0.5), quantile(batchWall, 0.99))
	fmt.Fprintf(log, "setups: %d, at the reference speed p50 %.6f s  p10 %.6f s  p90 %.6f s\n",
		len(setups), quantile(setups, 0.5), quantile(setups, 0.1), quantile(setups, 0.9))

	return map[string]metric{
		"trial_ms_p50":    {quantile(trialMS, 0.5), "ms"},
		"max_load":        {maxLoad, "requests"},
		"hop_cost":        {hopCost, "hops"},
		"decisions_per_s": {float64(len(batchMS)*batchPairs) / (sum(batchMS) / 1000), "1/s"},
		"batch_ms_p50":    {quantile(batchMS, 0.5), "ms"},
		"batch_ms_p99":    {quantile(tails, 0.5), "ms"},
		"setup_s":         {quantile(setups, 0.5), "s"},
		"mem_mb":          {float64(ms.Sys) / (1 << 20), "MB"},
	}, tl, nil
}

// split returns the samples' CPU and wall times in milliseconds.
func split(ss []sample) (cpu, wall []float64) {
	for _, s := range ss {
		cpu = append(cpu, durationMS(s.cpu))
		wall = append(wall, durationMS(s.wall))
	}
	return cpu, wall
}
