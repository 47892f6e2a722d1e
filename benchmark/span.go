package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layers are the module names spans and per-layer metrics are keyed by.
// "bench" is the harness itself: the root span and anything it does
// between calls into the program.
const layerBench = "bench"

// span is one timed interval of the traced run. Times are microseconds
// since the run's root span began; Parent is 0 for the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// recorder keeps the spans of one traced run in memory. A nil recorder
// (tracing off) accepts every call and records nothing.
type recorder struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

// spanRef names an open (or derived) span; a nil ref is the no-op span of
// a nil recorder.
type spanRef struct {
	r  *recorder
	id int
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, t0: time.Now()}
}

func (r *recorder) us(t time.Time) int64 { return t.Sub(r.t0).Microseconds() }

// begin opens a span under parent (nil parent = root) starting now.
func (r *recorder) begin(parent *spanRef, layer, name string) *spanRef {
	if r == nil {
		return nil
	}
	return r.add(parent, layer, name, time.Now(), time.Time{})
}

// add records a span with explicit bounds — the per-job spans derived
// from the launcher.Summary an API call returned. The bounds are clamped
// into the parent's interval: they are reconstructed from durations the
// program reported, not from this process's clock.
func (r *recorder) add(parent *spanRef, layer, name string, start, end time.Time) *spanRef {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{ID: len(r.spans) + 1, Run: r.run, Layer: layer, Name: name, StartUS: r.us(start), EndUS: -1}
	if !end.IsZero() {
		s.EndUS = r.us(end)
	}
	if parent != nil {
		p := r.spans[parent.id-1]
		s.Parent = p.ID
		if p.EndUS >= 0 && s.EndUS >= 0 {
			s.StartUS = min(max(s.StartUS, p.StartUS), p.EndUS)
			s.EndUS = min(max(s.EndUS, s.StartUS), p.EndUS)
		}
	}
	r.spans = append(r.spans, s)
	return &spanRef{r: r, id: s.ID}
}

// end closes the span now.
func (s *spanRef) end() {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.r.spans[s.id-1].EndUS = s.r.us(time.Now())
}

// bounds returns the span's start and end as wall-clock times.
func (s *spanRef) bounds() (start, end time.Time) {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	sp := s.r.spans[s.id-1]
	us := func(v int64) time.Time { return s.r.t0.Add(time.Duration(v) * time.Microsecond) }
	return us(sp.StartUS), us(sp.EndUS)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns each span's self time in microseconds, keyed by span
// id: its duration minus the part of its interval its children cover
// (children that run in parallel cover their union once).
func selfTimes(spans []span) (map[int]int64, error) {
	byID := map[int]span{}
	children := map[int][]span{}
	for _, s := range spans {
		if s.EndUS < s.StartUS {
			return nil, fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return nil, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			}
			if s.StartUS < p.StartUS || s.EndUS > p.EndUS {
				return nil, fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]",
					s.ID, s.Name, s.StartUS, s.EndUS, p.Name, p.StartUS, p.EndUS)
			}
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		var covered, upTo int64 = 0, s.StartUS
		for _, k := range kids {
			lo, hi := k.StartUS, k.EndUS
			if lo < upTo {
				lo = upTo
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.EndUS - s.StartUS - covered
	}
	return self, nil
}

// layerSelfSeconds sums self time per layer and returns the root span's
// duration, both in seconds.
func layerSelfSeconds(spans []span) (byLayer map[string]float64, root float64, err error) {
	self, err := selfTimes(spans)
	if err != nil {
		return nil, 0, err
	}
	byLayer = map[string]float64{}
	for _, s := range spans {
		byLayer[s.Layer] += float64(self[s.ID]) / 1e6
		if s.Parent == 0 {
			root += float64(s.EndUS-s.StartUS) / 1e6
		}
	}
	return byLayer, root, nil
}
