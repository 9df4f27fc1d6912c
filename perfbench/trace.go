package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sparkgo/internal/obs"
)

// span is one traced interval: a call into a layer's public function
// made by the benchmark, or an engine obs-bus event folded in as a span.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory; write puts them on disk once
// the run ends.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: t.run, Start: start, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	return time.Duration(s.End - s.Start)
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	f()
	return t.end(id)
}

// add records an already-measured interval (wall-clock times).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: t.run,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// foldObs records engine obs-bus stage and simulation events as spans
// under parent. Each event carries its publish time and duration, so its
// interval is [time-duration, time]. With nest set (a serial engine),
// events fully inside another event's interval nest under it: the
// engine publishes a point lookup after the stage lookups it contains.
func (t *tracer) foldObs(evs []obs.Event, parent int, nest bool) {
	type iv struct {
		name       string
		start, end time.Time
	}
	var ivs []iv
	for _, ev := range evs {
		var name string
		switch ev.Type {
		case obs.TypeStage:
			name = "explore.stage." + ev.Stage + "." + ev.Disposition
		case obs.TypeSim:
			name = "explore.sim"
		default:
			continue
		}
		end := time.Unix(0, ev.TimeNs)
		ivs = append(ivs, iv{name, end.Add(-time.Duration(ev.DurationNs)), end})
	}
	sort.SliceStable(ivs, func(i, j int) bool {
		if !ivs[i].start.Equal(ivs[j].start) {
			return ivs[i].start.Before(ivs[j].start)
		}
		return ivs[i].end.After(ivs[j].end)
	})
	type open struct {
		id  int
		end time.Time
	}
	var stack []open
	for _, v := range ivs {
		for len(stack) > 0 && v.end.After(stack[len(stack)-1].end) {
			stack = stack[:len(stack)-1]
		}
		p := parent
		if nest && len(stack) > 0 {
			p = stack[len(stack)-1].id
		}
		id := t.add(v.name, p, v.start, v.end)
		stack = append(stack, open{id, v.end})
	}
}

// drain returns the events buffered on a subscription without blocking.
func drain(sub *obs.Sub) []obs.Event {
	var evs []obs.Event
	for {
		select {
		case ev := <-sub.C:
			evs = append(evs, ev)
		default:
			return evs
		}
	}
}

// layerTime aggregates closed spans of one name: call count, total
// duration and total self time (duration minus the union of the
// intervals its children cover).
type layerTime struct {
	calls int
	total time.Duration
	self  time.Duration
}

func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.calls++
		lt.total += d
		lt.self += d - covered(s, kids[s.ID])
	}
	return out
}

// selfTimeNotes adds the run's self-time table to the report, largest
// total self time first.
func (t *tracer) selfTimeNotes(out *outcome) {
	lts := t.layers()
	names := make([]string, 0, len(lts))
	for n := range lts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lts[names[i]].self > lts[names[j]].self })
	out.note("%-38s %7s %12s %12s", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		lt := lts[n]
		out.note("%-38s %7d %12.3f %12.3f", n, lt.calls, ms(lt.total), ms(lt.self))
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return time.Duration(sum)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
