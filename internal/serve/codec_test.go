package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// placeCorpus is the shared seed corpus of the codec tests: each body
// with whether the fast scanner must accept it and the status the
// handler answers on the quiesced test world (n=144, K=100). Every
// status is the one encoding/json alone produced before the scanner
// existed.
var placeCorpus = []struct {
	name, body string
	fast       bool
	status     int
}{
	{"canonical", `{"pairs":[{"u":1,"f":2},{"u":143,"f":99}]}`, true, 200},
	{"padded", " \n{ \"pairs\" :\t[ { \"u\" : 1 , \"f\" : 2 } ,\r\n{\"u\":3,\"f\":4}] }\n ", true, 200},
	{"swapped keys", `{"pairs":[{"f":2,"u":1}]}`, true, 200},
	{"minus zero", `{"pairs":[{"u":-0,"f":2}]}`, true, 200},
	{"empty batch", `{"pairs":[]}`, true, 400},
	{"negative", `{"pairs":[{"u":-1,"f":2}]}`, true, 400},
	{"int32 min", `{"pairs":[{"u":-2147483648,"f":2}]}`, true, 400},
	{"int32 max", `{"pairs":[{"u":1,"f":2147483647}]}`, true, 400},
	{"upper-case keys", `{"Pairs":[{"U":1,"F":2}]}`, false, 200},
	{"escaped key", `{"pairs":[{"\u0075":1,"f":2}]}`, false, 200},
	{"unknown field", `{"pairs":[{"u":1,"f":2,"x":3}],"y":[]}`, false, 200},
	{"duplicate key", `{"pairs":[{"u":1,"u":3,"f":2}]}`, false, 200},
	{"duplicate key, other missing", `{"pairs":[{"u":1,"u":3}]}`, false, 200},
	{"duplicate pairs", `{"pairs":[{"u":1,"f":2}],"pairs":[{"u":3,"f":4}]}`, false, 200},
	{"missing key", `{"pairs":[{"u":1}]}`, false, 200},
	{"null pair", `{"pairs":[null]}`, false, 200},
	{"trailing bytes", `{"pairs":[{"u":1,"f":2}]} trailing`, false, 200},
	{"leading zero", `{"pairs":[{"u":01,"f":2}]}`, false, 400},
	{"exponent", `{"pairs":[{"u":1e2,"f":2}]}`, false, 400},
	{"fraction", `{"pairs":[{"u":1.0,"f":2}]}`, false, 400},
	{"overflow", `{"pairs":[{"u":2147483648,"f":2}]}`, false, 400},
	{"negative overflow", `{"pairs":[{"u":-2147483649,"f":2}]}`, false, 400},
	{"string number", `{"pairs":[{"u":"1","f":2}]}`, false, 400},
	{"null document", `null`, false, 400},
	{"null pairs", `{"pairs":null}`, false, 400},
	{"empty body", ``, false, 400},
	{"truncated", `{"pairs":[{"u":1,"f":2}`, false, 400},
	{"trailing comma", `{"pairs":[{"u":1,"f":2},]}`, false, 400},
}

// TestScanPlace pins which corpus bodies take the fast path, and that
// each one it takes decodes to what encoding/json decodes.
func TestScanPlace(t *testing.T) {
	for _, c := range placeCorpus {
		pairs, n, ok := scanPlace([]byte(c.body), nil)
		if ok != c.fast {
			t.Errorf("%s: scanner accepted=%v, want %v", c.name, ok, c.fast)
			continue
		}
		if ok {
			checkAgainstJSON(t, []byte(c.body), pairs, n)
		}
	}
}

// checkAgainstJSON fails unless encoding/json accepts body and decodes
// exactly the n pairs the scanner produced.
func checkAgainstJSON(t *testing.T, body []byte, pairs []Pair, n int) {
	t.Helper()
	var req PlaceRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
	}
	if n != len(req.Pairs) || !slices.Equal(pairs, req.Pairs) {
		t.Fatalf("%q: scanner decoded %d pairs %v, encoding/json %v", body, n, pairs, req.Pairs)
	}
}

// FuzzPlaceDecode is the scanner's differential property: whatever it
// accepts, encoding/json accepts too, with identical pairs.
func FuzzPlaceDecode(f *testing.F) {
	for _, c := range placeCorpus {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if pairs, n, ok := scanPlace(body, nil); ok {
			checkAgainstJSON(t, body, pairs, n)
		}
	})
}

// TestServeHTTPCorpus pins the handler's status for every corpus body,
// fast path and fallback alike.
func TestServeHTTPCorpus(t *testing.T) {
	e := New(compile(t, quiescedConfig()), 0)
	defer e.Close()
	srv := NewServer(e)
	for _, c := range placeCorpus {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(c.body)))
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.status, bytes.TrimSpace(rec.Body.Bytes()))
		}
	}
}

// FuzzPlaceHandler drives the whole handler with arbitrary bodies: it
// answers 200, 400 or 413 and never panics, and every 200 is valid JSON
// holding one decision per pair the body names.
func FuzzPlaceHandler(f *testing.F) {
	e := New(compile(f, quiescedConfig()), 0)
	f.Cleanup(e.Close)
	srv := NewServer(e)
	for _, c := range placeCorpus {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("%q: status %d", body, rec.Code)
		}
		var resp PlaceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%q: 200 body does not decode: %v", body, err)
		}
		var req PlaceRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("%q answered 200, encoding/json rejects it: %v", body, err)
		}
		if len(resp.Decisions) != len(req.Pairs) {
			t.Fatalf("%q: %d decisions for %d pairs", body, len(resp.Decisions), len(req.Pairs))
		}
	})
}

// TestAppendPlaceResponseMatchesEncoder checks the hand-written encoder
// byte for byte against json.Encoder on random responses, extremes
// included.
func TestAppendPlaceResponseMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	stamp := func() uint64 {
		return []uint64{0, 1, math.MaxUint64, rng.Uint64(), rng.Uint64N(1000)}[rng.IntN(5)]
	}
	int32s := func() int32 {
		return []int32{0, 1, math.MaxInt32, math.MinInt32, rng.Int32(), int32(rng.IntN(100))}[rng.IntN(6)]
	}
	var want bytes.Buffer
	var got []byte
	for i := 0; i < 2000; i++ {
		resp := PlaceResponse{Stamp: Stamp{Era: stamp(), Seq: stamp()}, Decisions: make([]Decision, rng.IntN(6))}
		for j := range resp.Decisions {
			resp.Decisions[j] = Decision{Node: int32s(), Hops: int32s(), Retried: rng.IntN(2) == 0}
		}
		want.Reset()
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		got = appendPlaceResponse(got[:0], &resp)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v:\n got %q\nwant %q", resp, got, want.Bytes())
		}
	}
}

// slowBody is a request body whose first Read sleeps.
type slowBody struct {
	r     io.Reader
	delay time.Duration
	slept bool
}

func (b *slowBody) Read(p []byte) (int, error) {
	if !b.slept {
		time.Sleep(b.delay)
		b.slept = true
	}
	return b.r.Read(p)
}

// TestServeHTTPMetricsLatencyCoversBody pins what /metrics latency
// measures: from before the body is read to after the response is
// written, so a body that takes 5ms to arrive reads at least 5ms.
func TestServeHTTPMetricsLatencyCoversBody(t *testing.T) {
	e := New(compile(t, quiescedConfig()), 0)
	defer e.Close()
	srv := NewServer(e)
	const delay = 5 * time.Millisecond
	body := &slowBody{r: strings.NewReader(`{"pairs":[{"u":1,"f":2}]}`), delay: delay}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", body))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/place status %d: %s", rec.Code, rec.Body.Bytes())
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Batches != 1 || m.LatP50US < int(delay.Microseconds()) {
		t.Fatalf("metrics batches=%d lat_p50_us=%d, want 1 and ≥ %d", m.Batches, m.LatP50US, delay.Microseconds())
	}
}

// TestServeHTTPBatchLimit pins the batch bound: maxBatch pairs are
// served, one more answers 400 naming the true size, and the scanner's
// pair slice stops growing at the limit.
func TestServeHTTPBatchLimit(t *testing.T) {
	e := New(compile(t, quiescedConfig()), 0)
	defer e.Close()
	srv := NewServer(e)
	body := func(n int) []byte {
		b := []byte(`{"pairs":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, `{"u":%d,"f":%d}`, i%144, i%100)
		}
		return append(b, "]}"...)
	}
	for _, c := range []struct {
		n      int
		status int
	}{{maxBatch, http.StatusOK}, {maxBatch + 1, http.StatusBadRequest}, {maxBatch + 100, http.StatusBadRequest}} {
		b := body(c.n)
		pairs, n, ok := scanPlace(b, nil)
		if !ok || n != c.n || len(pairs) != min(c.n, maxBatch) {
			t.Fatalf("%d pairs: scanner ok=%v n=%d len=%d", c.n, ok, n, len(pairs))
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(b)))
		if rec.Code != c.status {
			t.Fatalf("%d pairs: status %d, want %d", c.n, rec.Code, c.status)
		}
		want := fmt.Sprintf("bad request: batch %d exceeds limit %d", c.n, maxBatch)
		if c.status == http.StatusBadRequest && !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("%d pairs: body %q, want %q", c.n, rec.Body.String(), want)
		}
	}

	if !new(placeBuf).poolable() {
		t.Fatal("an empty buffer is not poolable")
	}
	if (&placeBuf{resp: make([]byte, 0, maxPooled+1)}).poolable() {
		t.Fatal("a response buffer over maxPooled is poolable")
	}
	if (&placeBuf{pairs: make([]Pair, 0, maxPooled)}).poolable() {
		t.Fatal("a pair slice over maxPooled bytes is poolable")
	}
}

// TestServeHTTPConcurrent runs batches of varying size through the
// handler from several goroutines at once, so pooled buffers move
// between requests: every answer must hold one decision per pair of its
// own batch, each at the torus distance from that pair's user.
func TestServeHTTPConcurrent(t *testing.T) {
	w := compile(t, quiescedConfig())
	e := New(w, 0)
	defer e.Close()
	srv := NewServer(e)
	const workers, batches = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 14))
			for b := 0; b < batches; b++ {
				pairs := make([]Pair, 1+rng.IntN(300))
				for i := range pairs {
					pairs[i] = Pair{User: int32(rng.IntN(w.N())), File: int32(rng.IntN(w.Config().K))}
				}
				body, _ := json.Marshal(PlaceRequest{Pairs: pairs})
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body)))
				var resp PlaceResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
					t.Errorf("worker %d batch %d: status %d, %v", g, b, rec.Code, err)
					return
				}
				if len(resp.Decisions) != len(pairs) {
					t.Errorf("worker %d batch %d: %d decisions for %d pairs", g, b, len(resp.Decisions), len(pairs))
					return
				}
				for i, d := range resp.Decisions {
					if want := w.Grid().Dist(int(pairs[i].User), int(d.Node)); int(d.Hops) != want {
						t.Errorf("worker %d batch %d pair %d: %d hops from %d to %d, distance is %d",
							g, b, i, d.Hops, pairs[i].User, d.Node, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
