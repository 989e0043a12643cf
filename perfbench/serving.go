package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/sim"
)

// batches is the number of distinct pre-generated batches the HTTP
// phases cycle through.
const batches = 128

// service is the served half of a workload: an engine, its HTTP front on
// a loopback listener, and a keep-alive client.
type service struct {
	eng    *serve.Engine
	srv    *serve.Server
	hs     *http.Server
	served chan error // the listener goroutine's exit
	client *http.Client
	url    string
}

// startService builds the engine over w, puts its HTTP front up on a
// loopback port and returns once the listener accepts connections.
func startService(w *sim.World) (*service, error) {
	eng := serve.New(w, era)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		eng:    eng,
		srv:    serve.NewServer(eng),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/place",
	}
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	return s, nil
}

// close shuts the listener down, waits for its goroutine and stops the
// engine's mutator.
func (s *service) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.eng.Close()
	return err
}

// conn is one client connection's reusable receive state.
type conn struct {
	body bytes.Buffer
	resp serve.PlaceResponse
}

// post sends one encoded batch and reads the response body into dst.
func (s *service) post(body []byte, dst *bytes.Buffer) error {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dst.Reset()
	if _, err := dst.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(dst.Bytes()))
	}
	return nil
}

// batchSet is the pre-generated input of the HTTP phases: batches of
// pairs drawn from the era's request stream, and their encoded bodies.
type batchSet struct {
	pairs  [][]serve.Pair
	bodies [][]byte
}

// newBatchSet draws the era's first batches·batchPairs requests through
// dist.RequestBatch, the generator the engine's own load generator uses.
func newBatchSet(s *service) (batchSet, error) {
	w := s.eng.World()
	origins := make([]int32, batches*batchPairs)
	files := make([]int32, len(origins))
	originRNG, fileRNG := w.RequestStream(era)
	dist.RequestBatch(originRNG, fileRNG, w.N(), s.eng.Snapshot().FileSampler(), origins, files)
	bs := batchSet{pairs: make([][]serve.Pair, batches), bodies: make([][]byte, batches)}
	for b := range bs.pairs {
		ps := make([]serve.Pair, batchPairs)
		for i := range ps {
			ps[i] = serve.Pair{User: origins[b*batchPairs+i], File: files[b*batchPairs+i]}
		}
		body, err := json.Marshal(serve.PlaceRequest{Pairs: ps})
		if err != nil {
			return batchSet{}, fmt.Errorf("encode batch: %w", err)
		}
		bs.pairs[b], bs.bodies[b] = ps, body
	}
	return bs, nil
}

// servedChecker returns the checker for decisions of this service: with
// the placement only when the world is quiesced.
func (s *service) checker() servedChecker {
	w := s.eng.World()
	cfg := w.Config()
	c := servedChecker{g: w.Grid()}
	c.r, c.bounded = boundedRadius(cfg, w.Grid())
	if !s.dynamic() {
		c.p = s.eng.Snapshot().Placement()
	}
	return c
}

// exchange posts batch b, checks its decisions and returns them with the
// round-trip time (request sent to body read; decoding and checking come
// after the clock stops). The decisions live in c until its next exchange.
func (s *service) exchange(bs batchSet, b int, chk servedChecker, c *conn) (time.Duration, []serve.Decision, error) {
	t0 := time.Now()
	err := s.post(bs.bodies[b], &c.body)
	rt := time.Since(t0)
	if err != nil {
		return rt, nil, err
	}
	ds, err := c.decode(c.body.Bytes(), bs.pairs[b], chk)
	return rt, ds, err
}

// decode decodes body, the answer to pairs, into c and checks it.
func (c *conn) decode(body []byte, pairs []serve.Pair, chk servedChecker) ([]serve.Decision, error) {
	if err := json.Unmarshal(body, &c.resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return c.resp.Decisions, chk.checkBatch(pairs, c.resp.Decisions)
}

// servedLoad accumulates the paper's two metrics over served decisions:
// hops for C, and per-node decision counts over consecutive windows of
// one trial's worth of requests for L.
type servedLoad struct {
	counts      []int32
	touched     []int32
	windowSize  int // batches per window
	inWindow    int
	maxSum      float64
	windows     int
	hops, total int64
}

func newServedLoad(w *sim.World) *servedLoad {
	return &servedLoad{counts: make([]int32, w.N()), windowSize: trialBatches(w)}
}

// trialBatches is the number of batches that hold one trial's worth of
// requests, rounded to the nearest.
func trialBatches(w *sim.World) int {
	return max(1, (w.Requests()+batchPairs/2)/batchPairs)
}

// observe folds one batch of decisions.
func (l *servedLoad) observe(ds []serve.Decision) {
	for _, d := range ds {
		if l.counts[d.Node] == 0 {
			l.touched = append(l.touched, d.Node)
		}
		l.counts[d.Node]++
		l.hops += int64(d.Hops)
	}
	l.total += int64(len(ds))
	if l.inWindow++; l.inWindow < l.windowSize {
		return
	}
	top := int32(0)
	for _, u := range l.touched {
		top = max(top, l.counts[u])
		l.counts[u] = 0
	}
	l.touched = l.touched[:0]
	l.inWindow = 0
	l.maxSum += float64(top)
	l.windows++
}

// merge folds another accumulator's closed windows and hop totals; the
// receiver needs no counts of its own.
func (l *servedLoad) merge(o *servedLoad) {
	l.maxSum += o.maxSum
	l.windows += o.windows
	l.hops += o.hops
	l.total += o.total
}

// maxLoad is the mean per-window maximum node count.
func (l *servedLoad) maxLoad() float64 {
	if l.windows == 0 {
		return 0
	}
	return l.maxSum / float64(l.windows)
}

// hopCost is the mean hops of all observed decisions.
func (l *servedLoad) hopCost() float64 {
	if l.total == 0 {
		return 0
	}
	return float64(l.hops) / float64(l.total)
}

// checkEvery is the number of consecutive batches the closed loop sends
// before it decodes and checks their answers.
const checkEvery = 1000

// closedLoop sends batches over one connection, each only after the
// previous answer arrived, until d has passed, and returns one sample per
// batch. On a world with churn, faults or arrivals the engine's mutator
// advances the placement after every batch; the loop waits for it to
// publish before it sends the next batch, and the wait is part of the
// batch's sample, so every batch carries the mutation it caused. Such a
// world's cost per batch also depends on how far into the era it is
// (arrivals stop once the vacant nodes have joined), so there the loop
// sends one trial's worth of batches, the era's first, then reloads the
// era, off the clock, and starts over: every pass repeats the same
// placement history, however many passes a run fits in. The answers are
// kept as raw bodies and decoded and checked after every checkEvery
// batches, so the benchmark's own decoding never overlaps a timed batch.
func closedLoop(s *service, bs batchSet, d time.Duration, m *speedMeter, tl *tally, load *servedLoad) []sample {
	chk := s.checker()
	dynamic := s.dynamic()
	perPass := trialBatches(s.eng.World())
	bodies := make([]bytes.Buffer, checkEvery)
	errs := make([]error, checkEvery)
	sent := make([]int, checkEvery) // the batch each body answers
	var out []sample
	var c conn
	deadline := time.Now().Add(d)
	for k := 0; time.Now().Before(deadline); {
		g := 0
		for ; g < checkEvery && time.Now().Before(deadline); g, k = g+1, k+1 {
			b := k % batches
			if dynamic {
				if k == perPass {
					if err := s.restartEra(); err != nil {
						tl.op(err)
					}
					k = 0
				}
				b = k % batches
			}
			sent[g] = b
			out = append(out, m.measure(func() {
				prev := s.eng.Snapshot()
				errs[g] = s.post(bs.bodies[b], &bodies[g])
				if errs[g] == nil && dynamic {
					errs[g] = s.awaitPublish(prev)
				}
			}))
		}
		for i := 0; i < g; i++ {
			err := errs[i]
			if err == nil {
				var ds []serve.Decision
				if ds, err = c.decode(bodies[i].Bytes(), bs.pairs[sent[i]], chk); err == nil {
					load.observe(ds)
				}
			}
			tl.op(err)
		}
	}
	return out
}

// restartEra reloads the served era and waits until the engine publishes
// its first snapshot.
func (s *service) restartEra() error {
	prev := s.eng.Snapshot()
	s.eng.Reload(era)
	return s.awaitPublish(prev)
}

// dynamic reports whether the served world changes between batches.
func (s *service) dynamic() bool {
	cfg := s.eng.World().Config()
	return cfg.Churn != sim.ChurnNone || cfg.Faults != sim.FaultsNone || cfg.Hetero == sim.HeteroArrival
}

// awaitPublish waits until the engine publishes a snapshot other than
// prev. It sleeps between looks, so the wait costs next to no CPU time.
func (s *service) awaitPublish(prev *sim.Snapshot) error {
	const timeout = 10 * time.Second
	deadline := time.Now().Add(timeout)
	for s.eng.Snapshot() == prev {
		if time.Now().After(deadline) {
			return fmt.Errorf("the engine published no new snapshot within %v", timeout)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// openRates are the fixed offered loads of the open-loop diagnostic, in
// batches per second. They stay the same on every commit so runs compare.
var openRates = []int{250, 500, 1000, 1500, 2000}

// openLimit is the p99 latency limit the diagnostic judges each rate by.
const openLimit = 10 * time.Millisecond

// openResult summarizes one offered rate.
type openResult struct {
	rate     int
	sent     int
	p50, p99 time.Duration
	lateMax  time.Duration // the generator's worst lateness against the schedule
	backlog  int           // batches due but not yet started when the last one fell due
	growing  bool
	meetsCap bool
}

// openLoop offers batches at each fixed rate to conns connections and
// times every batch from when it was due, so a stall counts against the
// batches queued behind it.
func openLoop(s *service, bs batchSet, step time.Duration, tl *tally) []openResult {
	chk := s.checker()
	var out []openResult
	for _, rate := range openRates {
		n := max(1, int(float64(rate)*step.Seconds()))
		period := time.Second / time.Duration(rate)
		due := make(chan time.Time, n) // holds the whole schedule, so the generator never blocks
		lat := make([][]time.Duration, conns)
		tls := make([]tally, conns)
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var cn conn
				for b := c; ; b = (b + conns) % batches {
					at, ok := <-due
					if !ok {
						return
					}
					_, _, err := s.exchange(bs, b, chk, &cn)
					tls[c].op(err)
					lat[c] = append(lat[c], time.Since(at))
				}
			}(c)
		}
		r := openResult{rate: rate, sent: n}
		start := time.Now()
		for i := 0; i < n; i++ {
			at := start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(at))
			r.lateMax = max(r.lateMax, time.Since(at))
			due <- at
		}
		r.backlog = len(due)
		close(due)
		wg.Wait()
		var all []time.Duration
		for c := range lat {
			all = append(all, lat[c]...)
			tl.add(&tls[c])
		}
		r.p50, r.p99 = quantileDur(all, 0.50), quantileDur(all, 0.99)
		// A queue deeper than one batch per connection at the end of the
		// schedule means arrivals outran service.
		r.growing = r.backlog > conns
		r.meetsCap = r.p99 <= openLimit && !r.growing
		out = append(out, r)
	}
	return out
}
