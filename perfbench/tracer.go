package main

import "time"

// span is one timed call into a layer; a layer span's parent is the span
// of its trial or batch.
type span struct {
	name       string
	parent     int // index of the parent span, -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory; the per-layer metrics are computed from
// them when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.epoch) }

// childSums returns, per root span of the given name, the summed
// duration of its children by name, in root order.
func (t *tracer) childSums(root string) []map[string]time.Duration {
	idx := map[int]int{}
	var out []map[string]time.Duration
	for i, s := range t.spans {
		if s.parent < 0 && s.name == root {
			idx[i] = len(out)
			out = append(out, map[string]time.Duration{})
		}
	}
	for _, s := range t.spans {
		if k, ok := idx[s.parent]; ok {
			out[k][s.name] += s.end - s.start
		}
	}
	return out
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}
