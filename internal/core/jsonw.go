package core

// The JSON writer behind the two encodings a warm request pays for: a
// cell's resolved form, whose SHA-256 is its CellKey, and a campaign's
// results, which matchserve serves. It appends fields in declaration order
// with strconv, without reflection, and its output equals encoding/json's
// byte for byte — json.Marshal's in the compact layout, json.Encoder's
// with SetIndent("", "  ") in the indented one. encoding/json stays the
// decoder and the oracle: TestJSONWriterCoversEveryField fails on a field
// this file does not write, and FuzzResultJSON compares the two on
// arbitrary field values.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"match/internal/apps/appkit"
	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/fault"
	"match/internal/replica"
	"match/internal/ulfm"
)

// jsonw appends one JSON value to b.
type jsonw struct {
	b      []byte
	indent bool // encoding/json's Indent layout with the indent "  "; compact otherwise
	depth  int  // open objects and arrays
	empty  bool // the innermost open object or array has no member yet
	// path names the open objects started by object, for the error of a
	// non-finite float; no value written here nests them deeper.
	path  [3]string
	npath int
	err   error // the first non-finite float
}

// next starts a member of the open object or array.
func (w *jsonw) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	if w.indent {
		w.newline()
	}
}

// newlines holds a line break and the indent of every depth a value
// written here reaches.
const newlines = "\n            "

func (w *jsonw) newline() {
	w.b = append(w.b, newlines[:1+2*w.depth]...)
}

// key starts the member name of the open object; name needs no escaping.
func (w *jsonw) key(name string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

// open starts an object ('{') or an array ('[').
func (w *jsonw) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the innermost object ('}') or array (']').
func (w *jsonw) close(c byte) {
	w.depth--
	if w.indent && !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// object starts member name of the open object as an object; endObject
// ends it.
func (w *jsonw) object(name string) {
	w.key(name)
	w.open('{')
	w.path[w.npath] = name
	w.npath++
}

func (w *jsonw) endObject() {
	w.close('}')
	w.npath--
}

func (w *jsonw) null(name string) {
	w.key(name)
	w.b = append(w.b, "null"...)
}

func (w *jsonw) int(name string, v int64) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *jsonw) bool(name string, v bool) {
	w.key(name)
	w.b = strconv.AppendBool(w.b, v)
}

func (w *jsonw) str(name, v string) {
	w.key(name)
	w.b = appendJSONString(w.b, v)
}

// float writes v as encoding/json does: the shortest decimal that reads
// back as v, in exponent form below 1e-6 and from 1e21 on. JSON has no
// NaN or infinity, so those set w.err, naming the field.
func (w *jsonw) float(name string, v float64) {
	w.key(name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			path := append(w.path[:w.npath:w.npath], name)
			w.err = fmt.Errorf("%s is %v, which JSON cannot represent", strings.Join(path, "."), v)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1] // e-07 is written e-7
		w.b = w.b[:n-1]
	}
}

// appendJSONString appends s quoted. A string that is not plain printable
// ASCII without '"', '\\', '<', '>' and '&' is left to json.Marshal, whose
// escapes (HTML, control characters, U+2028, invalid UTF-8) it keeps.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSON appends d as MarshalJSON renders it: its ShortName quoted, or
// an out-of-range value's number.
func (d Design) appendJSON(b []byte) []byte {
	if d >= 0 && int(d) < len(designNames) {
		b = append(b, '"')
		b = append(b, designNames[d]...)
		return append(b, '"')
	}
	return strconv.AppendInt(b, int64(d), 10)
}

// appendJSON appends s as MarshalJSON renders it: its name quoted, or an
// out-of-range value's number.
func (s InputSize) appendJSON(b []byte) []byte {
	if s >= 0 && int(s) < len(inputNames) {
		b = append(b, '"')
		b = append(b, inputNames[s]...)
		return append(b, '"')
	}
	return strconv.AppendInt(b, int64(s), 10)
}

// resultJSONBytes is about what one Result takes in the indented layout
// (1.8 KB for the cells of the paper's figures, which have no schedule),
// so a results body is written into one buffer that seldom grows.
const resultJSONBytes = 1856

// ResultsJSON renders results exactly as json.NewEncoder(w) with
// SetIndent("", "  ") writes them, closing newline included, into one
// buffer sized for them. A non-finite float is an error naming the result
// and the field, where encoding/json would fail part-way.
func ResultsJSON(results []Result) ([]byte, error) {
	w := jsonw{b: make([]byte, 0, 8+len(results)*resultJSONBytes), indent: true}
	if err := w.results(results); err != nil {
		return nil, err
	}
	return append(w.b, '\n'), nil
}

func (w *jsonw) results(results []Result) error {
	if results == nil {
		w.b = append(w.b, "null"...)
		return nil
	}
	w.open('[')
	for i := range results {
		w.next()
		w.result(&results[i])
		if w.err != nil {
			return fmt.Errorf("core: result %d (%s): %w", i, results[i].Key(), w.err)
		}
	}
	w.close(']')
	return nil
}

func (w *jsonw) result(r *Result) {
	w.open('{')
	w.object("Config")
	w.config(&r.Config)
	w.endObject()
	w.object("Breakdown")
	w.breakdown(&r.Breakdown)
	w.endObject()
	w.close('}')
}

// config writes the members of a Config; its observers are tagged "-".
func (w *jsonw) config(c *Config) {
	w.str("App", c.App)
	w.key("Design")
	w.b = c.Design.appendJSON(w.b)
	w.int("Procs", int64(c.Procs))
	w.int("Nodes", int64(c.Nodes))
	w.key("Input")
	w.b = c.Input.appendJSON(w.b)
	w.bool("InjectFault", c.InjectFault)
	w.int("FaultSeed", c.FaultSeed)
	w.int("FaultKind", int64(c.FaultKind))
	w.int("Faults", int64(c.Faults))
	if c.Schedule == nil {
		w.null("Schedule")
	} else {
		w.object("Schedule")
		w.schedule(c.Schedule)
		w.endObject()
	}
	w.int("FTILevel", int64(c.FTILevel))
	w.object("CkptPolicy")
	w.ckptPolicy(&c.CkptPolicy)
	w.endObject()
	w.object("Detector")
	w.detector(&c.Detector)
	w.endObject()
	w.bool("ModelIngress", c.ModelIngress)
	w.object("Ulfm")
	w.ulfm(&c.Ulfm)
	w.endObject()
	w.object("Replica")
	w.replica(&c.Replica)
	w.endObject()
	w.object("Params")
	w.params(&c.Params)
	w.endObject()
}

func (w *jsonw) breakdown(bd *Breakdown) {
	w.int("Total", int64(bd.Total))
	w.int("App", int64(bd.App))
	w.int("Ckpt", int64(bd.Ckpt))
	w.int("Recovery", int64(bd.Recovery))
	w.int("DetectLatency", int64(bd.DetectLatency))
	w.int("DetectedFailures", int64(bd.DetectedFailures))
	w.float("Signature", bd.Signature)
	w.int("Recoveries", int64(bd.Recoveries))
	w.int("FaultsInjected", int64(bd.FaultsInjected))
	w.bool("Completed", bd.Completed)
	w.int("CkptCount", int64(bd.CkptCount))
	w.int("CkptBytes", bd.CkptBytes)
	w.key("CkptCountAt")
	w.open('[')
	for _, n := range bd.CkptCountAt {
		w.next()
		w.b = strconv.AppendInt(w.b, int64(n), 10)
	}
	w.close(']')
	w.key("CkptBytesAt")
	w.open('[')
	for _, n := range bd.CkptBytesAt {
		w.next()
		w.b = strconv.AppendInt(w.b, n, 10)
	}
	w.close(']')
	w.int("CkptAvoided", int64(bd.CkptAvoided))
	w.int("Messages", bd.Messages)
	w.int("NetBytes", bd.NetBytes)
	w.int("Respawns", int64(bd.Respawns))
	w.int("SpawnTime", int64(bd.SpawnTime))
	w.int("LeakedEvents", int64(bd.LeakedEvents))
}

// appendCellJSON appends rc as json.Marshal encodes it, omitempty fields
// left out: the bytes CellKey hashes.
func appendCellJSON(b []byte, rc *resolvedCell) ([]byte, error) {
	w := jsonw{b: b}
	w.cell(rc)
	return w.b, w.err
}

func (w *jsonw) cell(rc *resolvedCell) {
	w.open('{')
	w.int("v", int64(rc.V))
	w.str("app", rc.App)
	w.key("design")
	w.b = rc.Design.appendJSON(w.b)
	w.int("procs", int64(rc.Procs))
	w.int("nodes", int64(rc.Nodes))
	w.key("input")
	w.b = rc.Input.appendJSON(w.b)
	w.int("faults", int64(rc.Faults))
	if rc.Seed != 0 {
		w.int("seed", rc.Seed)
	}
	if rc.Kind != 0 {
		w.int("fault_kind", int64(rc.Kind))
	}
	if rc.Schedule != "" {
		w.str("schedule", rc.Schedule)
	}
	w.int("fti_level", int64(rc.FTILevel))
	w.object("detector")
	w.detector(&rc.Detector)
	w.endObject()
	w.object("ckpt_policy")
	w.ckptPolicy(&rc.Policy)
	w.endObject()
	if rc.Ingress {
		w.bool("model_ingress", true)
	}
	if rc.Ulfm != nil {
		w.object("ulfm")
		w.ulfm(rc.Ulfm)
		w.endObject()
	}
	if rc.Replica != nil {
		w.object("replica")
		w.replica(rc.Replica)
		w.endObject()
	}
	w.object("params")
	w.params(&rc.Params)
	w.endObject()
	w.close('}')
}

// The nested types, written the same in both layouts.

func (w *jsonw) schedule(s *fault.Schedule) {
	if s.Events == nil {
		w.null("Events")
		return
	}
	w.key("Events")
	w.open('[')
	for i := range s.Events {
		e := &s.Events[i]
		w.next()
		w.open('{')
		w.int("Kind", int64(e.Kind))
		w.int("TargetRank", int64(e.TargetRank))
		w.int("TargetIter", int64(e.TargetIter))
		w.int("TargetReplica", int64(e.TargetReplica))
		w.int("AfterRecoveries", int64(e.AfterRecoveries))
		w.close('}')
	}
	w.close(']')
}

func (w *jsonw) ckptPolicy(c *ckpt.Config) {
	w.int("Kind", int64(c.Kind))
	w.int("Stride", int64(c.Stride))
	w.int("L2Every", int64(c.L2Every))
	w.int("L3Every", int64(c.L3Every))
	w.int("L4Every", int64(c.L4Every))
	w.int("Stretch", int64(c.Stretch))
	w.bool("SkipProtected", c.SkipProtected)
}

func (w *jsonw) detector(c *detect.Config) {
	w.int("Kind", int64(c.Kind))
	w.int("HeartbeatPeriod", int64(c.HeartbeatPeriod))
	w.int("HeartbeatBytes", int64(c.HeartbeatBytes))
	w.int("DetectTimeout", int64(c.DetectTimeout))
	w.int("InterferenceSteal", int64(c.InterferenceSteal))
}

func (w *jsonw) ulfm(c *ulfm.Config) {
	w.float("DeliveryFactor", c.DeliveryFactor)
}

// replica writes a replica.Config; StateBytes is tagged "-".
func (w *jsonw) replica(c *replica.Config) {
	w.int("DupDegree", int64(c.DupDegree))
	w.float("ReplicaFactor", c.ReplicaFactor)
	w.int("FailoverDetect", int64(c.FailoverDetect))
	w.int("ElectionDelay", int64(c.ElectionDelay))
	w.bool("HotSpare", c.HotSpare)
	w.int("SpawnDelay", int64(c.SpawnDelay))
	w.float("SpawnBandwidth", c.SpawnBandwidth)
}

func (w *jsonw) params(p *appkit.Params) {
	w.int("NX", int64(p.NX))
	w.int("NY", int64(p.NY))
	w.int("NZ", int64(p.NZ))
	w.int("S", int64(p.S))
	w.int("NVerts", int64(p.NVerts))
	w.int("MaxIter", int64(p.MaxIter))
	w.float("WorkScale", p.WorkScale)
	w.int("Seed", p.Seed)
}
