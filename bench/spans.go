package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval seen from the harness: a run, a round, an op,
// or a phase of an op (cell; or post / watch / results). Parent is the id
// of the span that caused it (0 for the run itself).
type span struct {
	Name   string
	ID     int
	Parent int
	Start  time.Time
	End    time.Time
}

// spanLog keeps spans in memory and writes them out once, at exit. A nil
// *spanLog records nothing, so untraced runs pay one branch per call.
type spanLog struct {
	spans []span
}

// add records a finished interval and returns its id.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// open records a span whose end is not known yet; close it with end.
func (l *spanLog) open(name string, parent int) int {
	return l.add(name, parent, time.Now(), time.Time{})
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = time.Now()
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Nesting depth is the track, so parents sit above children.
func (l *spanLog) writeChrome(path string) error {
	if l == nil || len(l.spans) == 0 {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t0 := l.spans[0].Start
	depth := make([]int, len(l.spans)+1)
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		if s.Parent > 0 {
			depth[s.ID] = depth[s.Parent] + 1
		}
		end := s.End
		if end.IsZero() {
			end = s.Start
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(end.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: depth[s.ID],
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]interface{}{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
