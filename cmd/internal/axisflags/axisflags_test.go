package axisflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"match/internal/ckpt"
	"match/internal/detect"
	"match/internal/simnet"
)

func parse(t *testing.T, single bool, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, single)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefaults(t *testing.T) {
	// A single-run command defaults to fixed placement at its stride; a
	// sweep command leaves both axes alone.
	single := parse(t, true)
	if ds, err := single.Detectors(); err != nil || ds != nil {
		t.Fatalf("single detectors = %v, %v", ds, err)
	}
	ps, err := single.Policies(5)
	if err != nil || len(ps) != 1 || ps[0] != (ckpt.Config{Kind: ckpt.Fixed, Stride: 5}) {
		t.Fatalf("single policies = %v, %v", ps, err)
	}
	sweep := parse(t, false)
	if ps, err := sweep.Policies(0); err != nil || ps != nil {
		t.Fatalf("sweep policies = %v, %v", ps, err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, false)
	if fs.Lookup("hb-bytes") != nil {
		t.Fatal("the sweep vocabulary has no -hb-bytes")
	}
}

func TestSweepLists(t *testing.T) {
	f := parse(t, false, "-detector", "ring", "-hb-period", "50ms, 150ms",
		"-ckpt-policy", "fixed,multi-level,replica-aware", "-ckpt-l3-every", "2", "-ckpt-skip-protected")
	ds, err := f.Detectors()
	if err != nil || len(ds) != 2 {
		t.Fatalf("detectors = %v, %v", ds, err)
	}
	// Resolved: the unset timeout derives as 3x the explicit period.
	if ds[1].Kind != detect.Ring || ds[1].HeartbeatPeriod != 150*simnet.Millisecond ||
		ds[1].DetectTimeout != 450*simnet.Millisecond {
		t.Fatalf("detector not resolved: %+v", ds[1])
	}
	ps, err := f.Policies(0)
	if err != nil || len(ps) != 3 {
		t.Fatalf("policies = %v, %v", ps, err)
	}
	// Each knob lands only on the policy of its kind.
	if ps[0] != (ckpt.Config{Kind: ckpt.Fixed, Stride: 10}) || ps[1].L3Every != 2 || ps[1].L2Every != 0 ||
		!ps[2].SkipProtected || ps[2].L3Every != 0 {
		t.Fatalf("knobs misrouted: %+v", ps)
	}
}

func TestRejections(t *testing.T) {
	cases := []struct {
		single bool
		args   []string
		want   string
	}{
		{true, []string{"-hb-period", "50ms", "-hb-bytes", "9"}, "-hb-period/-hb-bytes only applies to -detector ring or tree (got preset)"},
		{false, []string{"-detector", "launcher", "-hb-timeout", "1s"}, "-hb-timeout only applies to -detector ring or tree (got launcher)"},
		{false, []string{"-detector", "ring", "-hb-period", "soon"}, "bad -hb-period:"},
		{false, []string{"-detector", "ring", "-hb-period", "100ms", "-hb-timeout", "1ms"}, ""}, // detect.Validate is core's call
		{true, []string{"-ckpt-l2-every", "3"}, "-ckpt-l2/l3/l4-every only apply with -ckpt-policy multi-level"},
		{false, []string{"-ckpt-stretch", "2"}, "-ckpt-stretch/-ckpt-skip-protected only apply with -ckpt-policy replica-aware"},
		{false, []string{"-ckpt-policy", "replica-aware", "-ckpt-stretch", "-1"}, "ckpt: replica-aware placement with stretch -1"},
		{false, []string{"-ckpt-policy", "sometimes"}, "ckpt: unknown placement policy"},
		{false, []string{"-detector", "psychic"}, "detect:"},
	}
	for _, c := range cases {
		f := parse(t, c.single, c.args...)
		_, err := f.Detectors()
		if err == nil {
			_, err = f.Policies(0)
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: error = %v, want %q", c.args, err, c.want)
		}
	}
}
