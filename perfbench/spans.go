package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. Spans are recorded only by the benchmark, around its
// calls into each layer; a span's layer is its name up to the first dot:
//
//	bench    an iteration or client loop (self time = the benchmark itself)
//	study    avgi.NewStudy (golden runs)
//	sched    a request the Study's scheduler answers by simulating
//	memo     a request the Study answers from its memoised campaigns
//	core     estimator training and phase 4-5 assessment
//	service  Service.Assess
//	ladder   the per-layer probes that follow the measured loop
//
// A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one recorded interval; Parent 0 is a root. Req groups the spans
// of one request or iteration.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark returns a position after which spans are "new" (for selfShares).
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeNDJSON writes every span, one JSON object per line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfShares returns, for the spans recorded in [from, to), each layer's
// share of the summed self time. A span's self time is its duration minus
// the part of it that its children cover.
func (t *tracer) selfShares(from, to int) map[string]float64 {
	out := make(map[string]float64)
	if t == nil || to <= from {
		return out
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans[from:to]...)
	t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var total float64
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self := float64(s.End-s.Start) - float64(covered(children[s.ID], s.Start, s.End))
		out[layerOf(s.Name)] += self
		total += self
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}
