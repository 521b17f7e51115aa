package main

import (
	"strings"
	"testing"
)

// extract accepts both raw benchmark text and the go test -json stream,
// dropping host-speed units and keeping everything else as the
// deterministic figure set.
func TestExtractRoutesUnits(t *testing.T) {
	raw := strings.NewReader(strings.Join([]string{
		"BenchmarkCampaign-8   1   2000000 ns/op   512 B/op   7 allocs/op   3.5 cells/sec   1.25 overhead-ratio",
		"not a benchmark line",
	}, "\n"))
	figures, err := extract(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := figures["BenchmarkCampaign/overhead-ratio"]; got != 1.25 {
		t.Errorf("figure = %g, want 1.25", got)
	}
	if len(figures) != 1 {
		t.Errorf("host units reached the figure map: %v", figures)
	}
}
