package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
)

// replayStats collects the untraced twins and counters of the replayed
// trials.
type replayStats struct {
	serialMS, parallelMS []float64
	requests             int
	escalated, backhaul  int
	retried              int
	arrivals, faults     int // faults counts crash and recovery events
	churn                int
}

func (rs *replayStats) add(res sim.Result) {
	rs.requests += res.Requests
	rs.escalated += res.Escalated
	rs.backhaul += res.Backhaul
	rs.retried += res.Retried
	rs.arrivals += res.ArrivalEvents
	rs.faults += res.FaultEvents + res.RecoverEvents
	rs.churn += res.ChurnEvents
}

// replayPhase times, for trials 1, 2, … until d has passed, an untraced
// sequential trial, an untraced two-worker trial of the same world, and
// the traced replay, which must reproduce the sequential Result.
func replayPhase(cfg sim.Config, d time.Duration, tr *tracer, tl *tally) (replayStats, error) {
	if cfg.Chunk <= 0 {
		return replayStats{}, fmt.Errorf("replay: Config.Chunk must be set")
	}
	serialCfg, parallelCfg := cfg, cfg
	serialCfg.Workers, serialCfg.Shard = 0, sim.ShardDeterministic
	parallelCfg.Workers = 2
	serial, err := sim.Compile(serialCfg)
	if err != nil {
		return replayStats{}, fmt.Errorf("compile: %w", err)
	}
	parallel, err := sim.Compile(parallelCfg)
	if err != nil {
		return replayStats{}, fmt.Errorf("compile: %w", err)
	}
	g := serial.Grid()
	rs, rp := serial.NewRunner(), parallel.NewRunner()
	tl.op(checkTrial(rs.RunTrial(0), g))
	tl.op(checkTrial(rp.RunTrial(0), g))
	replay := newReplayer(serial, tr)

	var st replayStats
	deadline := time.Now().Add(d)
	for t := uint64(1); len(st.serialMS) == 0 || time.Now().Before(deadline); t++ {
		t0 := time.Now()
		want := rs.RunTrial(t)
		st.serialMS = append(st.serialMS, msSince(t0))
		t0 = time.Now()
		par := rp.RunTrial(t)
		st.parallelMS = append(st.parallelMS, msSince(t0))
		tl.op(checkTrial(par, g))

		got, err := replay.trial(t)
		tl.op(errors.Join(checkTrial(want, g), err, sameResult(got, want)))
		st.add(want)
	}
	return st, nil
}

// probePhase replays the served batches layer by layer until d has
// passed: decode, decide and encode as the handler does them, then the
// whole handler through a recorder, then one HTTP round trip. It returns
// the round trips.
func probePhase(svc *service, bs batchSet, d time.Duration, tr *tracer, tl *tally) []time.Duration {
	const minBatches = 10
	chk := svc.checker()
	var rts []time.Duration
	var buf bytes.Buffer
	var c conn
	deadline := time.Now().Add(d)
	for b := 0; b < minBatches || time.Now().Before(deadline); b++ {
		k := b % batches
		root := tr.begin("batch", -1)
		sp := tr.begin("serve.decode", root)
		var req serve.PlaceRequest
		errDecode := json.NewDecoder(bytes.NewReader(bs.bodies[k])).Decode(&req)
		tr.end(sp)

		sp = tr.begin("serve.decide", root)
		ctx := svc.eng.Get()
		resp := serve.PlaceResponse{Decisions: make([]serve.Decision, len(req.Pairs))}
		resp.Stamp = ctx.PlaceBatch(req.Pairs, resp.Decisions)
		svc.eng.Put(ctx)
		tr.end(sp)

		sp = tr.begin("serve.encode", root)
		buf.Reset()
		errEncode := json.NewEncoder(&buf).Encode(&resp)
		tr.end(sp)
		tr.end(root)
		tl.op(errors.Join(errDecode, errEncode, chk.checkBatch(bs.pairs[k], resp.Decisions)))

		hreq := httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(bs.bodies[k]))
		rec := httptest.NewRecorder()
		sp = tr.begin("serve.handler", -1)
		svc.srv.ServeHTTP(rec, hreq)
		tr.end(sp)
		tl.op(checkRecorded(rec, bs.pairs[k], chk))

		rt, _, err := svc.exchange(bs, k, chk, &c)
		tl.op(err)
		if err == nil {
			rts = append(rts, rt)
		}
	}
	return rts
}

// checkRecorded checks a response the handler wrote into a recorder.
func checkRecorded(rec *httptest.ResponseRecorder, pairs []serve.Pair, chk servedChecker) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp serve.PlaceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("handler: decode response: %w", err)
	}
	return chk.checkBatch(pairs, resp.Decisions)
}

// runTraced measures the per-layer metrics of one workload: the trial
// replay first, then the serve-layer probe (and, on the served workload,
// the open-loop diagnostic).
func runTraced(wl workload, seed uint64, window time.Duration, log io.Writer) (map[string]metric, *tally, error) {
	cfg := wl.cfg
	cfg.Seed = seed
	tl := &tally{}
	tr := newTracer()

	replayWindow := time.Duration(wl.trialShare() * float64(window))
	rs, err := replayPhase(cfg, replayWindow, tr, tl)
	if err != nil {
		return nil, nil, err
	}
	// Free the replay's worlds before the service builds its own.
	runtime.GC()

	w, err := sim.Compile(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	svc, err := startService(w)
	if err != nil {
		return nil, nil, err
	}
	bs, err := newBatchSet(svc)
	if err != nil {
		svc.close()
		return nil, nil, err
	}
	rts := probePhase(svc, bs, window-replayWindow, tr, tl)
	var open []openResult
	if wl.servePrimary {
		open = openLoop(svc, bs, wl.openStep, tl)
	}
	if err := svc.close(); err != nil {
		return nil, nil, err
	}

	m := layerMetrics(wl, rs, rts, tr)
	fmt.Fprintf(log, "traced trials: %d  untraced sequential p50 %.4f ms  two-worker p50 %.4f ms\n",
		len(rs.serialMS), quantile(rs.serialMS, 0.5), quantile(rs.parallelMS, 0.5))
	fmt.Fprintf(log, "probed batches: %d\n", len(tr.durations("serve.handler")))
	printOpenLoop(log, open, wl.openStep)
	return m, tl, nil
}

// layerMetrics turns the spans and counters into the per-layer metrics.
func layerMetrics(wl workload, rs replayStats, rts []time.Duration, tr *tracer) map[string]metric {
	trials := tr.childSums("trial")
	perTrial := func(name string) float64 {
		ms := make([]float64, len(trials))
		for i, s := range trials {
			ms[i] = durationMS(s[name])
		}
		return quantile(ms, 0.5)
	}
	var assign, barrier time.Duration
	spanSum := make([]float64, len(trials))
	for i, s := range trials {
		assign += s["core.assign"]
		barrier += s["sim.barrier"]
		for _, d := range s {
			spanSum[i] += durationMS(d)
		}
	}
	n := float64(len(trials))
	frac := func(c int) float64 { return float64(c) / float64(max(1, rs.requests)) }
	// Each barrier phase counts as one event besides the mutations it
	// applies, so worlds without mutations report the bare phase cost.
	units := rs.arrivals + rs.faults + rs.churn + len(tr.durations("sim.barrier"))
	perEvent := durationUS(barrier) / float64(max(1, units))

	handler := quantileDur(tr.durations("serve.handler"), 0.5)
	decode := quantileDur(tr.durations("serve.decode"), 0.5)
	decide := quantileDur(tr.durations("serve.decide"), 0.5)
	encode := quantileDur(tr.durations("serve.encode"), 0.5)
	overhead := quantile(spanSum, 0.5)/quantile(rs.serialMS, 0.5) - 1
	if wl.servePrimary {
		var inner []float64
		for _, s := range tr.childSums("batch") {
			inner = append(inner, float64(s["serve.decode"]+s["serve.decide"]+s["serve.encode"]))
		}
		overhead = quantile(inner, 0.5)/float64(handler) - 1
	}

	return map[string]metric{
		"cache.place_ms":           {perTrial("cache.place"), "ms"},
		"dist.generate_ms":         {perTrial("dist.generate"), "ms"},
		"core.assign_ms":           {perTrial("core.assign"), "ms"},
		"core.assign_ns_per_req":   {float64(assign.Nanoseconds()) / float64(max(1, rs.requests)), "ns"},
		"core.escalated_frac":      {frac(rs.escalated), "ratio"},
		"core.backhaul_frac":       {frac(rs.backhaul), "ratio"},
		"core.retried_frac":        {frac(rs.retried), "ratio"},
		"stats.account_ms":         {perTrial("stats.account"), "ms"},
		"sim.barrier_ms":           {perTrial("sim.barrier"), "ms"},
		"sim.barrier_us_per_event": {perEvent, "us"},
		"sim.arrival_events":       {float64(rs.arrivals) / n, "count"},
		"sim.fault_events":         {float64(rs.faults) / n, "count"},
		"sim.churn_events":         {float64(rs.churn) / n, "count"},
		"sim.speedup_vs_serial":    {quantile(rs.serialMS, 0.5) / quantile(rs.parallelMS, 0.5), "ratio"},
		"serve.decode_us":          {durationUS(decode), "us"},
		"serve.decide_us":          {durationUS(decide), "us"},
		"serve.encode_us":          {durationUS(encode), "us"},
		"serve.handler_us":         {durationUS(handler), "us"},
		"serve.transport_us":       {durationUS(quantileDur(rts, 0.5) - handler), "us"},
		"trace.overhead_frac":      {overhead, "ratio"},
	}
}

// printOpenLoop reports the open-loop diagnostic. It stays out of the
// metrics: its tail moves too much between identical runs to gate on.
func printOpenLoop(log io.Writer, rs []openResult, step time.Duration) {
	if len(rs) == 0 {
		return
	}
	best := 0
	fmt.Fprintf(log, "open loop (%d connections, %d-pair batches, %v per rate, latency from due time, limit p99 ≤ %v):\n",
		conns, batchPairs, step, openLimit)
	for _, r := range rs {
		fmt.Fprintf(log, "  %5d batches/s  sent %5d  p50 %8.3f ms  p99 %8.3f ms  generator late ≤ %.3f ms  backlog %d  growing=%v\n",
			r.rate, r.sent, durationMS(r.p50), durationMS(r.p99), durationMS(r.lateMax), r.backlog, r.growing)
	}
	for _, r := range rs {
		if !r.meetsCap {
			break
		}
		best = r.rate
	}
	fmt.Fprintf(log, "  highest rate meeting the limit: %d batches/s (%d decisions/s)\n", best, best*batchPairs)
}
