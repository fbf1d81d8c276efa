package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer's public function.
type span struct {
	ID, Parent, Query int64
	Name, Module      string
	Start, End        time.Duration // since the tracer's origin
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	lastID  int64
	queries int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (tr *tracer) newID() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.lastID++
	return tr.lastID
}

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, s)
}

func (tr *tracer) mark() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// since returns a copy of the spans recorded after mark m.
func (tr *tracer) since(m int) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans[m:]...)
}

// query opens the scope of a new query; a nil tracer returns a nil scope.
func (tr *tracer) query() *scope {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	tr.queries++
	q := tr.queries
	tr.mu.Unlock()
	return &scope{tr: tr, query: q}
}

// scope is the parent of the spans recorded inside it.  A nil scope records
// nothing, so untraced runs pay only a nil check.
type scope struct {
	tr    *tracer
	id    int64 // 0 at the query's top level
	query int64
}

// do runs fn inside a span named name, owned by module.
func (s *scope) do(name, module string, fn func(*scope) error) error {
	if s == nil {
		return fn(nil)
	}
	id := s.tr.newID()
	start := time.Since(s.tr.origin)
	err := fn(&scope{tr: s.tr, id: id, query: s.query})
	s.tr.add(span{ID: id, Parent: s.id, Query: s.query, Name: name, Module: module,
		Start: start, End: time.Since(s.tr.origin)})
	return err
}

// record adds a span with known bounds as a child of s.
func (s *scope) record(name, module string, start, end time.Time) {
	if s == nil {
		return
	}
	s.tr.add(span{ID: s.tr.newID(), Parent: s.id, Query: s.query, Name: name, Module: module,
		Start: start.Sub(s.tr.origin), End: end.Sub(s.tr.origin)})
}

// selfTimes returns each span's duration minus the part of it its children
// cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered, reach time.Duration
		reach = s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, Perfetto).
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.Module, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "query": s.Query},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// layerRow is one module's share of a workload's query time.
type layerRow struct {
	module string
	ms     float64 // per query
}

// layerTable renders the attribution table and names the module that owns
// the largest share of total.
func layerTable(title string, total float64, rows []layerRow, self map[string]float64) (string, string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.3f ms per query\n", title, total)
	fmt.Fprintf(&b, "  %-64s %10s %7s\n", "module", "ms/query", "share")
	owner, best := "", -1.0
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-64s %10.3f %6.1f%%\n", r.module, r.ms, 100*r.ms/total)
		if r.ms > best {
			owner, best = r.module, r.ms
		}
	}
	fmt.Fprintf(&b, "  owner of most of the query time: %s\n", owner)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(&b, "  self time by span (ms/query):\n")
	for _, n := range names {
		fmt.Fprintf(&b, "    %-50s %10.3f\n", n, self[n])
	}
	return b.String(), owner
}

// selfByName sums self time per span name, per query the spans cover.
func selfByName(spans []span) map[string]float64 {
	st := selfTimes(spans)
	queries := map[int64]bool{}
	for _, s := range spans {
		queries[s.Query] = true
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += ms(st[s.ID]) / float64(len(queries))
	}
	return out
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
