package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
	"unsafe"

	"repro/internal/stats"
)

// latencyBound caps the per-batch latency histogram at 100ms in
// microsecond resolution — far above any healthy batch, so quantiles
// stay exact where they matter and the histogram stays a fixed 800KB.
const latencyBound = 100_000

// Server is the HTTP front of an Engine: batched placement queries on
// POST /v1/place, liveness on GET /healthz, and qps/latency/era
// diagnostics on GET /metrics. Decision contexts and request buffers
// are pooled per request, so concurrent connections scale like the
// in-process engine.
type Server struct {
	e     *Engine
	mux   *http.ServeMux
	start time.Time

	bufs sync.Pool // *placeBuf

	mu      sync.Mutex
	lat     *stats.Accumulator // per-batch latency, body read to response write, µs
	batches int64
}

// NewServer wraps e in an HTTP handler.
func NewServer(e *Engine) *Server {
	s := &Server{
		e:     e,
		mux:   http.NewServeMux(),
		start: time.Now(),
		lat:   stats.NewAccumulator(latencyBound),
	}
	s.mux.HandleFunc("POST /v1/place", s.handlePlace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Engine returns the wrapped engine.
func (s *Server) Engine() *Engine { return s.e }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// PlaceRequest is the POST /v1/place body: a batch of queries.
type PlaceRequest struct {
	Pairs []Pair `json:"pairs"`
}

// PlaceResponse is the POST /v1/place answer: one decision per query,
// all stamped with the single snapshot version they observed.
type PlaceResponse struct {
	Stamp
	Decisions []Decision `json:"decisions"`
}

// maxBatch bounds one /v1/place request; larger batches should be
// split client-side (the stamp is per batch, so a bound also bounds
// how stale a batch's pinned snapshot can get).
const maxBatch = 1 << 16

// maxPlaceBody caps the /v1/place request body, which is read whole
// before decoding starts: a full maxBatch of pairs is well under 4MB,
// so anything larger is a hostile or broken client, answered 413.
const maxPlaceBody = 4 << 20

// maxPooled is the largest buffer, in bytes, a finished /v1/place
// request returns to the pool. Larger ones (near-maxBatch batches,
// hostile bodies) go to the collector, so one request cannot pin them.
const maxPooled = 1 << 20

// placeBuf is one /v1/place request's reusable memory: the body, the
// decoded pairs, the decisions and the encoded response.
type placeBuf struct {
	body  bytes.Buffer
	pairs []Pair
	out   []Decision
	resp  []byte
}

func (b *placeBuf) poolable() bool {
	return b.body.Cap() <= maxPooled && cap(b.resp) <= maxPooled &&
		cap(b.pairs)*int(unsafe.Sizeof(Pair{})) <= maxPooled &&
		cap(b.out)*int(unsafe.Sizeof(Decision{})) <= maxPooled
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	b, _ := s.bufs.Get().(*placeBuf)
	if b == nil {
		b = new(placeBuf)
	}
	defer func() {
		if b.poolable() {
			s.bufs.Put(b)
		}
	}()

	b.body.Reset()
	if _, err := b.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxPlaceBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxPlaceBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	pairs, n, err := decodePlace(b.body.Bytes(), b.pairs[:0])
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	b.pairs = pairs
	if n == 0 {
		http.Error(w, "bad request: empty batch", http.StatusBadRequest)
		return
	}
	if n > maxBatch {
		http.Error(w, fmt.Sprintf("bad request: batch %d exceeds limit %d", n, maxBatch), http.StatusBadRequest)
		return
	}
	nodes := s.e.World().N()
	k := s.e.World().Config().K
	for i, p := range pairs {
		if p.User < 0 || int(p.User) >= nodes || p.File < 0 || int(p.File) >= k {
			http.Error(w, fmt.Sprintf("bad request: pair %d (u=%d f=%d) out of range (n=%d K=%d)", i, p.User, p.File, nodes, k), http.StatusBadRequest)
			return
		}
	}

	if cap(b.out) < n {
		b.out = make([]Decision, n)
	}
	resp := PlaceResponse{Decisions: b.out[:n]}
	ctx := s.e.Get()
	resp.Stamp = ctx.PlaceBatch(pairs, resp.Decisions)
	s.e.Put(ctx)
	b.resp = appendPlaceResponse(b.resp[:0], &resp)

	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b.resp) // a failed write means the client has gone; nobody is left to tell

	el := time.Since(t0).Microseconds()
	s.mu.Lock()
	s.lat.Observe(int(el))
	s.batches++
	s.mu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// Metrics is the GET /metrics payload.
type Metrics struct {
	UptimeSec   float64 `json:"uptime_sec"`
	Decisions   int64   `json:"decisions"`
	Batches     int64   `json:"batches"`
	QPS         float64 `json:"qps"` // decisions/s over uptime
	LatMeanUS   float64 `json:"lat_mean_us"`
	LatP50US    int     `json:"lat_p50_us"`
	LatP99US    int     `json:"lat_p99_us"`
	LatMaxUS    int     `json:"lat_max_us"`
	Era         uint64  `json:"era"`
	Seq         uint64  `json:"seq"`
	DeadNodes   int     `json:"dead_nodes"`
	ChurnEvents int     `json:"churn_events"`
	FaultEvents int     `json:"fault_events"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	info := s.e.Info()
	up := time.Since(s.start).Seconds()
	served := s.e.Served()
	s.mu.Lock()
	m := Metrics{
		UptimeSec:   up,
		Decisions:   served,
		Batches:     s.batches,
		LatMeanUS:   s.lat.Mean(),
		LatP50US:    s.lat.Quantile(0.5),
		LatP99US:    s.lat.Quantile(0.99),
		LatMaxUS:    s.lat.Max(),
		Era:         info.Era,
		Seq:         info.Seq,
		DeadNodes:   info.DeadNodes,
		ChurnEvents: info.ChurnEvents,
		FaultEvents: info.FaultEvents,
	}
	s.mu.Unlock()
	if up > 0 {
		m.QPS = float64(served) / up
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&m)
}
