package core

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"match/internal/detect"
	"match/internal/fault"
	"match/internal/simnet"
	"match/internal/store"
)

// analysisCase is one small sweep and the analyses that read it.
type analysisCase struct {
	name   string
	cfgs   []Config
	render func(w io.Writer, results []Result)
}

// hpccgCell is an HPCCG campaign cell at the Small input, seeded like a
// campaign's.
func hpccgCell(d Design, procs, k int) Config {
	return Config{App: "HPCCG", Design: d, Procs: procs, Input: Small, Faults: k, FaultSeed: 1}
}

func analysisCases() []analysisCase {
	ring := func(period simnet.Time) detect.Config {
		return detect.Resolve(detect.Config{Kind: detect.Ring, HeartbeatPeriod: period}, detect.Config{})
	}
	rings := []detect.Config{ring(50 * simnet.Millisecond), ring(150 * simnet.Millisecond)}

	// (a) The respawn axis: Reinit once per k, the replica design with
	// hot spares off and on. The k=2 cells kill both members of one
	// replica group, which only a hot spare turns into two failovers.
	double, err := fault.ParseSchedule("5@20:replica=1,5@45:replica=0")
	if err != nil {
		panic(err)
	}
	var hotSpare []Config
	for k := 0; k <= 2; k++ {
		reinit, off := hpccgCell(ReinitFTI, 8, k), hpccgCell(ReplicaFTI, 8, k)
		if k == 2 {
			reinit.Faults, reinit.Schedule = 0, &double
			off.Faults, off.Schedule = 0, &double
		}
		on := off
		on.Replica.HotSpare = true
		hotSpare = append(hotSpare, reinit, off, on)
	}

	// (b) Two rings at two scales.
	var detection []Config
	for _, dc := range rings {
		for _, procs := range []int{8, 16} {
			for k := 0; k <= 1; k++ {
				for _, d := range []Design{ReinitFTI, ReplicaFTI} {
					c := hpccgCell(d, procs, k)
					c.Detector = dc
					detection = append(detection, c)
				}
			}
		}
	}

	// (c) Replica factors 0, 0.5 and 1 under the given detectors.
	factors := func(dcs []detect.Config) []Config {
		var out []Config
		for _, dc := range dcs {
			for _, f := range []float64{0, 0.5, 1} {
				for k := 0; k <= 1; k++ {
					c := hpccgCell(ReplicaFTI, 8, k)
					c.Detector, c.Replica = dc, replicaConfigFor(f)
					out = append(out, c)
				}
			}
		}
		return out
	}

	// (d) Figs. 5-10 in the order -all feeds them: the scaling figures at
	// k=0 and k=1, then the input figures, each replotted figure repeated.
	scaling := func(k int) []Config {
		var out []Config
		for _, procs := range []int{8, 16} {
			for _, d := range Designs() {
				out = append(out, hpccgCell(d, procs, k))
			}
		}
		return out
	}
	inputs := func(k int) []Config {
		var out []Config
		for _, in := range []InputSize{Small, Medium} {
			for _, d := range Designs() {
				c := hpccgCell(d, 8, k)
				c.Input = in
				out = append(out, c)
			}
		}
		return out
	}
	var figs []Config
	for _, part := range [][]Config{scaling(0), scaling(1), scaling(1), inputs(0), inputs(1), inputs(1)} {
		figs = append(figs, part...)
	}

	campaignAnd := func(analyses ...func(io.Writer, []Result)) func(io.Writer, []Result) {
		return func(w io.Writer, rs []Result) {
			WriteCampaign(w, rs)
			for _, a := range analyses {
				a(w, rs)
			}
		}
	}
	replicaTradeoff := func(w io.Writer, rs []Result) { WriteReplicaTradeoff(w, ComputeReplicaTradeoff(rs)) }
	return []analysisCase{
		{"a/hot-spare", hotSpare, campaignAnd(func(w io.Writer, rs []Result) {
			off, on, swept := HotSpareCrossovers(rs)
			fmt.Fprintf(w, "hot-spare swept: %t\n", swept)
			off.Write(w)
			on.Write(w)
		})},
		{"b/two-rings-two-scales", detection, campaignAnd(func(w io.Writer, rs []Result) {
			WriteDetectionTradeoff(w, ComputeDetectionTradeoff(rs))
		})},
		{"c/factors-one-detector", factors([]detect.Config{{}}), campaignAnd(replicaTradeoff)},
		{"c/factors-two-rings", factors(rings), campaignAnd(replicaTradeoff)},
		{"d/ratios-figs-5-10", figs, func(w io.Writer, rs []Result) { ComputeRatios(rs).Write(w) }},
	}
}

// TestAnalysesGolden pins every campaign analysis — the campaign table's
// overhead column, both hot-spare crossovers, the detection and replica
// trade-offs and the headline ratios — on four small HPCCG sweeps whose
// cells the analyses must pair correctly: a respawn sweep, two rings at
// two scales, replica factors under one and under two detectors, and the
// figure list -all hands ComputeRatios.
func TestAnalysesGolden(t *testing.T) {
	cases := analysisCases()
	var cfgs []Config
	for _, c := range cases {
		cfgs = append(cfgs, c.cfgs...)
	}
	results, err := CampaignRunner{Store: store.NewMemory(0)}.Cells(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, c := range cases {
		fmt.Fprintf(&out, "##### %s\n", c.name)
		c.render(&out, results[:len(c.cfgs)])
		results = results[len(c.cfgs):]
	}
	golden(t, "analyses.golden", out.Bytes())
}
