package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// This file is the /v1/place wire codec. The request body has a fixed
// schema, so the hot path scans it by hand instead of through
// reflection: scanPlace accepts exactly the documents json.Marshal of a
// PlaceRequest produces, whitespace between tokens and "u"/"f" in either
// order included, and hands everything else — upper-case or escaped
// keys, unknown, duplicate or missing fields, exponents, leading zeros,
// overflow, null, trailing bytes — to encoding/json, so accepted
// requests and error texts are exactly encoding/json's. The response is
// appended byte-for-byte as json.Encoder writes a PlaceResponse.

// decodePlace decodes a /v1/place body, appending its pairs to pairs on
// the fast path. It returns the pairs and the batch size n; past
// maxBatch the fast path keeps counting without appending, so n can
// exceed len(pairs) and the slice never grows beyond the limit.
func decodePlace(body []byte, pairs []Pair) ([]Pair, int, error) {
	if out, n, ok := scanPlace(body, pairs); ok {
		return out, n, nil
	}
	// A fresh value: decoding into a reused slice would leave fields a
	// pair omits holding the previous batch's values.
	var req PlaceRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, 0, err
	}
	return req.Pairs, len(req.Pairs), nil
}

// scanPlace parses body as a canonical PlaceRequest document,
// appending up to maxBatch pairs and counting the rest. ok is false for
// any other input, valid JSON or not.
func scanPlace(body []byte, pairs []Pair) (_ []Pair, n int, ok bool) {
	s := scanner{b: body}
	s.eat(`{`)
	s.eat(`"pairs"`)
	s.eat(`:`)
	s.eat(`[`)
	if !s.next(']') {
		for !s.bad {
			p := s.pair()
			if n < maxBatch {
				pairs = append(pairs, p)
			}
			n++
			if s.next(']') {
				break
			}
			s.eat(`,`)
		}
	}
	s.eat(`}`)
	s.ws()
	return pairs, n, !s.bad && s.i == len(s.b)
}

// scanner is a cursor over a request body. A failed expectation sets
// bad, after which every step is a no-op.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and then tok, or marks the scan bad.
func (s *scanner) eat(tok string) {
	s.ws()
	if s.bad || len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		s.bad = true
		return
	}
	s.i += len(tok)
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.bad || s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

// pair parses one {"u":U,"f":F} object, keys in either order.
func (s *scanner) pair() (p Pair) {
	s.eat(`{`)
	var prev byte
	for k := 0; k < 2; k++ {
		if k > 0 {
			s.eat(`,`)
		}
		s.ws()
		if s.bad || len(s.b)-s.i < 3 || s.b[s.i] != '"' || s.b[s.i+2] != '"' {
			s.bad = true
			return p
		}
		key := s.b[s.i+1]
		s.i += 3
		s.eat(`:`)
		v := s.int32()
		switch {
		case key == 'u' && prev != 'u':
			p.User = v
		case key == 'f' && prev != 'f':
			p.File = v
		default:
			s.bad = true
		}
		prev = key
	}
	s.eat(`}`)
	return p
}

// int32 parses a JSON integer — an optional minus, then 0 or a digit
// run without a leading zero — that fits in int32. A fraction or
// exponent stops the digits and fails the next expectation.
func (s *scanner) int32() int32 {
	s.ws()
	if s.bad {
		return 0
	}
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		if v > -math.MinInt32 {
			s.bad = true
			return 0
		}
		s.i++
	}
	if neg {
		v = -v
	}
	if s.i == start || (s.b[start] == '0' && s.i-start > 1) || v > math.MaxInt32 {
		s.bad = true
		return 0
	}
	return int32(v)
}

// appendPlaceResponse appends the bytes json.NewEncoder(w).Encode(resp)
// writes, trailing newline included. resp.Decisions must be non-nil.
func appendPlaceResponse(dst []byte, resp *PlaceResponse) []byte {
	dst = append(dst, `{"era":`...)
	dst = strconv.AppendUint(dst, resp.Era, 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, resp.Seq, 10)
	dst = append(dst, `,"decisions":[`...)
	for i, d := range resp.Decisions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = strconv.AppendInt(dst, int64(d.Node), 10)
		dst = append(dst, `,"hops":`...)
		dst = strconv.AppendInt(dst, int64(d.Hops), 10)
		if d.Retried {
			dst = append(dst, `,"retried":true`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}
