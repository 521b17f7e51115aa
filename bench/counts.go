package main

import (
	"fmt"
	"strconv"
	"strings"

	"match/internal/store"
)

// parseOpenMetrics sums every sample of an OpenMetrics text exposition by
// sample name, across label sets — obs.SweepMeter labels each design, the
// benchmark wants the total. It reads the same text in-process
// (SweepMeter.WriteOpenMetrics) and from matchserve's /metrics.
func parseOpenMetrics(text []byte) map[string]float64 {
	sums := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		sums[name] += v
	}
	return sums
}

// countMetrics maps the simulator's own counters to per-layer metrics.
var countMetrics = []struct{ metric, sample string }{
	{"simnet.events_per_op", "match_sim_events_fired_total"},
	{"mpi.msgs_per_op", "match_mpi_messages_total"},
	{"mpi.bytes_per_op", "match_mpi_bytes_total"},
	{"mpi.collectives_per_op", "match_mpi_collectives_total"},
	{"fti.ckpts_per_op", "match_fti_checkpoints_total"},
	{"fti.ckpt_bytes_per_op", "match_fti_checkpoint_bytes_total"},
	{"fti.restores_per_op", "match_fti_restores_total"},
	{"designs.recoveries_per_op", "match_recoveries_total"},
}

// tracedTotals is what a driver sums over the traced rounds of a run.
type tracedTotals struct {
	ops   int
	hostS float64     // wall seconds
	virtS float64     // simulated seconds (Breakdown.Total)
	store store.Stats // hits, misses and puts only
}

func (t *tracedTotals) addStore(after, before store.Stats) {
	t.store.Hits += after.Hits - before.Hits
	t.store.Misses += after.Misses - before.Misses
	t.store.Puts += after.Puts - before.Puts
}

// addTo writes the per-op counts into layer: the simulator's own counters
// (summed OpenMetrics samples), the store's, and the two derived rates.
func (t *tracedTotals) addTo(layer, counters map[string]float64) error {
	if t.ops == 0 {
		return fmt.Errorf("no traced round ran")
	}
	ops := float64(t.ops)
	for _, c := range countMetrics {
		layer[c.metric] = counters[c.sample] / ops
	}
	layer["store.hits_per_op"] = float64(t.store.Hits) / ops
	layer["store.misses_per_op"] = float64(t.store.Misses) / ops
	layer["store.puts_per_op"] = float64(t.store.Puts) / ops
	layer["core.virt_s_per_op"] = t.virtS / ops
	layer["core.virt_s_per_host_s"] = t.virtS / t.hostS
	if ev := layer["simnet.events_per_op"]; ev > 0 {
		layer["simnet.host_ns_per_event"] = t.hostS * 1e9 / (ev * ops)
	}
	return nil
}
