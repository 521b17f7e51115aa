package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"match/internal/fault"
	"match/internal/simnet"
	"match/internal/ulfm"
)

// encoderJSON is what matchserve served before the writer: json.Encoder
// with SetIndent("", "  ").
func encoderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// writerJSON renders a []Result or a *resolvedCell with the writer, in the
// indented layout (closing newline included, as json.Encoder writes it)
// or the compact one, through the entry points the program uses where one
// exists.
func writerJSON(t testing.TB, v any, indent bool) ([]byte, error) {
	switch v := v.(type) {
	case []Result:
		if indent {
			return ResultsJSON(v)
		}
		w := jsonw{}
		err := w.results(v)
		return w.b, err
	case *resolvedCell:
		if !indent {
			return appendCellJSON(nil, v)
		}
		w := jsonw{indent: true}
		w.cell(v)
		return append(w.b, '\n'), w.err
	}
	t.Fatalf("writerJSON of %T", v)
	return nil, nil
}

// checkWriter requires the writer to render v, in both layouts, as
// encoding/json does (json.Marshal compact, json.Encoder indented), or
// both to refuse it.
func checkWriter(t testing.TB, v any) {
	t.Helper()
	for _, indent := range []bool{false, true} {
		var want []byte
		var werr error
		if indent {
			want, werr = encoderJSON(v)
		} else {
			want, werr = json.Marshal(v)
		}
		got, gerr := writerJSON(t, v, indent)
		switch {
		case (werr != nil) != (gerr != nil):
			t.Fatalf("%T, indent %v: encoding/json error %v, writer error %v", v, indent, werr, gerr)
		case werr == nil && !bytes.Equal(got, want):
			t.Fatalf("%T, indent %v: writer differs from encoding/json:\n%s\nwant\n%s", v, indent, got, want)
		}
	}
}

// filler sets every field of a value that encoding/json encodes, depth
// first in declaration order, drawing each from the source of its kind.
type filler struct {
	t     testing.TB
	int   func() int64
	float func() float64
	bool  func() bool
	str   func() string
	// len gives a slice's length or, at zero or more, a pointer's target;
	// below zero the slice or pointer is nil.
	len func() int
}

func (f filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(f.int())
	case reflect.Float64:
		v.SetFloat(f.float())
	case reflect.Bool:
		v.SetBool(f.bool())
	case reflect.String:
		v.SetString(f.str())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Slice:
		n := f.len()
		if n < 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(v.Index(i))
		}
	case reflect.Pointer:
		if f.len() < 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() && sf.Tag.Get("json") != "-" {
				f.fill(v.Field(i))
			}
		}
	default:
		f.t.Fatalf("field of kind %s in %s: teach the JSON writer and this test its encoding", v.Kind(), v.Type())
	}
}

// Every field encoding/json writes of a Result and of a resolvedCell gets
// a distinct non-zero value (every pointer set, every omitempty field
// present, each slice two elements long), and the writer must render both
// exactly as encoding/json does in both layouts. A field added to one of
// these types, or to a type they nest, and not to the writer fails here.
func TestJSONWriterCoversEveryField(t *testing.T) {
	n := int64(0)
	f := filler{t: t,
		int:   func() int64 { n++; return n },
		float: func() float64 { n++; return float64(n) + 0.25 },
		bool:  func() bool { return true },
		str:   func() string { n++; return "s" + strconv.FormatInt(n, 10) },
		len:   func() int { return 2 },
	}
	var results []Result
	f.fill(reflect.ValueOf(&results).Elem())
	checkWriter(t, results)
	var rc resolvedCell
	f.fill(reflect.ValueOf(&rc).Elem())
	checkWriter(t, &rc)

	// Zero values, nil pointers and nil slices.
	checkWriter(t, []Result(nil))
	checkWriter(t, []Result{})
	checkWriter(t, []Result{{Config: Config{Schedule: &fault.Schedule{}}}})
	checkWriter(t, &resolvedCell{})
}

// A non-finite float is refused with the result, its cell and the field
// named; encoding/json refuses it too, after a 200 would have been sent.
func TestResultsJSONRefusesNonFinite(t *testing.T) {
	for _, tc := range []struct {
		set   func(*Result)
		field string
	}{
		{func(r *Result) { r.Breakdown.Signature = math.NaN() }, "Breakdown.Signature is NaN"},
		{func(r *Result) { r.Config.Replica.SpawnBandwidth = math.Inf(1) }, "Config.Replica.SpawnBandwidth is +Inf"},
		{func(r *Result) { r.Config.Params.WorkScale = math.Inf(-1) }, "Config.Params.WorkScale is -Inf"},
	} {
		results := []Result{{Config: Config{App: "HPCCG"}}, {Config: Config{App: "HPCCG", Design: UlfmFTI, Procs: 8}}}
		tc.set(&results[1])
		_, err := ResultsJSON(results)
		if err == nil || !strings.Contains(err.Error(), "result 1 (HPCCG/ULFM-FTI/p8/Small)") || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("error %v, want result 1 (HPCCG/ULFM-FTI/p8/Small) and %q named", err, tc.field)
		}
		if _, err := encoderJSON(results); err == nil {
			t.Errorf("encoding/json accepted %q", tc.field)
		}
	}
	rc := resolvedCell{Ulfm: &ulfm.Config{DeliveryFactor: math.NaN()}}
	if _, err := appendCellJSON(nil, &rc); err == nil || !strings.Contains(err.Error(), "ulfm.DeliveryFactor is NaN") {
		t.Errorf("cell with a NaN knob: error %v", err)
	}
}

// fuzzFloats are the values a float field takes from a selector byte below
// 0x80: signed zeros and both sides of encoding/json's exponent-form
// bounds (1e-6 and 1e21), the extremes, and the three non-finite values.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21,
	math.Nextafter(1e21, 0), -1e21, 1e20, 1e-7, 5e-324, math.MaxFloat64,
	-math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125, 13824, -2.5e-300,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// FuzzResultJSON decodes its bytes into a []Result and a resolvedCell,
// field by field (see fill below), and requires the writer to equal
// encoding/json in both layouts, or both to refuse a non-finite float.
func FuzzResultJSON(f *testing.F) {
	for _, s := range []string{"", "plain", "a<b>&c", `<a href="x">&amp;</a>`, "tab\there\x01\x1f", "line\u2028sep\u2029", "bad\xff\xfe utf8", `back\slash`} {
		for _, k := range []byte{0, 1, 2, 3, 4, 5, 6, 7, 9, 18, 0x7f} {
			f.Add(append([]byte{2, byte(len(s))}, append([]byte(s), bytes.Repeat([]byte{k}, 512)...)...))
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 2048))
	f.Fuzz(func(t *testing.T, data []byte) {
		take := func() byte {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return c
		}
		word := func() uint64 {
			var b [8]byte
			for i := range b {
				b[i] = take()
			}
			return binary.LittleEndian.Uint64(b[:])
		}
		fl := filler{t: t,
			// Small signed values (in-range designs and sizes, negatives),
			// or all 64 bits after a selector of 0xf0 and up.
			int: func() int64 {
				if c := take(); c < 0xf0 {
					return int64(int8(c))
				}
				return int64(word())
			},
			float: func() float64 {
				if c := take(); c < 0x80 {
					return fuzzFloats[int(c)%len(fuzzFloats)]
				}
				return math.Float64frombits(word())
			},
			bool: func() bool { return take()&1 == 1 },
			str: func() string {
				n := int(take()) % 24
				s := make([]byte, n)
				for i := range s {
					s[i] = take()
				}
				return string(s)
			},
			// nil, empty, or one to three elements.
			len: func() int { return int(take())%5 - 1 },
		}
		var results []Result
		fl.fill(reflect.ValueOf(&results).Elem())
		checkWriter(t, results)
		var rc resolvedCell
		fl.fill(reflect.ValueOf(&rc).Elem())
		checkWriter(t, &rc)
	})
}

// BenchmarkResultsJSON renders a 16-cell results body, the size of a
// serve-warm campaign's, with the writer and with encoding/json.
func BenchmarkResultsJSON(b *testing.B) {
	req := CampaignRequest{Apps: []string{"HPCCG", "CoMD"}, Procs: 8, MaxFaults: 1, Seed: 7}
	var results []Result
	for i, cfg := range req.Configs() {
		results = append(results, Result{Config: cfg, Breakdown: Breakdown{Total: 12_345_678_901 + 1000*simnet.Time(i),
			App: 9_876_543_210, Signature: 13824.0625 + float64(i), Completed: true, CkptCount: 10,
			CkptBytes: 1 << 30, CkptCountAt: [5]int{1: 10}, CkptBytesAt: [5]int64{1: 1 << 30}, Messages: 21_000, NetBytes: 1 << 28}})
	}
	b.Run("writer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ResultsJSON(results); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := encoderJSON(results); err != nil {
				b.Fatal(err)
			}
		}
	})
}
