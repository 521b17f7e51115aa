// Structured lifecycle event log, backed by log/slog with a JSON handler.
// Off by default; a nil *Log is fully inert. When enabled it emits one
// JSON object per lifecycle event — inject, detect, failover, respawn,
// fallback, node-fail, cell start/finish — with a stable schema:
//
//	{"time":"...","level":"INFO","msg":"<event>","vt_s":1.234,...}
//
// "msg" is the event name; "vt_s" is virtual seconds within the run
// (absent on host-side events like cell_start); remaining keys are
// event-specific. The in-run lines are rendered from the spans the layers
// emit through the Probe (spanLine in probe.go); the harness writes the
// host-side ones directly. The log is a pure observer: nothing in the
// simulation reads it, so log-on runs stay byte-identical on stdout.
//
// The handler serializes internally, so one Log may be shared by
// concurrent sweep cells; derived per-cell Logs (With) tag every event
// with its cell.

package obs

import (
	"io"
	"log/slog"
	"os"
)

// Log wraps a slog.Logger with nil-receiver-safe emission helpers.
type Log struct {
	l *slog.Logger
}

// NewLog returns a Log writing JSON events to w.
func NewLog(w io.Writer) *Log {
	return &Log{l: slog.New(slog.NewJSONHandler(w, nil))}
}

// OpenLog opens the event log a command's -log flag names: "" is no log
// (the inert nil Log), "stderr" writes to standard error, anything else
// creates that file. The Closer is never nil on success; it closes the
// file when there is one.
func OpenLog(dest string) (*Log, io.Closer, error) {
	switch dest {
	case "":
		return nil, io.NopCloser(nil), nil
	case "stderr":
		return NewLog(os.Stderr), io.NopCloser(nil), nil
	}
	f, err := os.Create(dest)
	if err != nil {
		return nil, nil, err
	}
	return NewLog(f), f, nil
}

// NewLogWithHandler returns a Log over a caller-built handler (tests use
// this to strip the host timestamp for golden comparisons).
func NewLogWithHandler(h slog.Handler) *Log {
	return &Log{l: slog.New(h)}
}

// Enabled reports whether events will be recorded (l non-nil).
func (l *Log) Enabled() bool { return l != nil }

// With returns a derived Log whose events all carry the given attrs
// (slog key-value pairs); nil stays nil.
func (l *Log) With(args ...any) *Log {
	if l == nil {
		return nil
	}
	return &Log{l: l.l.With(args...)}
}

// Event emits one in-run lifecycle event at virtual time vt (nanoseconds),
// rendered as a vt_s seconds attribute, followed by event-specific
// key-value pairs. No-op on a nil Log.
func (l *Log) Event(vt int64, name string, args ...any) {
	if l == nil {
		return
	}
	l.l.Info(name, append([]any{slog.Float64("vt_s", float64(vt)/1e9)}, args...)...)
}

// HostEvent emits one host-side lifecycle event (cell start/finish) with
// no virtual timestamp. No-op on a nil Log.
func (l *Log) HostEvent(name string, args ...any) {
	if l == nil {
		return
	}
	l.l.Info(name, args...)
}
