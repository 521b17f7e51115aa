package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func writeFile(path, body string) error {
	return os.WriteFile(path, []byte(body), 0o644)
}

const campaignA = `app,design,procs,input,faults,detector,ckpt_policy,rfactor,hot_spare,app_s,ckpt_s,recovery_s,detect_s,total_s,recoveries,respawns,spawn_s,ckpts,ckpt_l1,ckpt_l2,ckpt_l3,ckpt_l4,ckpt_avoided,messages,net_bytes
HPCCG,reinit,8,25x25x25,2,ring,fixed,1,0,10,1,2,0.1,13,2,0,0,5,3,1,0,1,0,100,4096
HPCCG,replica,8,25x25x25,2,ring,fixed,2,0,10,0,4,0.1,14,2,0,0,0,0,0,0,0,0,200,8192
HPCCG,reinit,8,25x25x25,6,ring,fixed,1,0,10,3,9,0.3,22,6,0,0,5,3,1,0,1,0,100,4096
HPCCG,replica,8,25x25x25,6,ring,fixed,2,0,10,0,8,0.3,18,6,0,0,0,0,0,0,0,0,200,8192
`

// Same cells, but the k=6 winner flips from replica back to reinit.
const campaignB = `app,design,procs,input,faults,detector,ckpt_policy,rfactor,hot_spare,app_s,ckpt_s,recovery_s,detect_s,total_s,recoveries,respawns,spawn_s,ckpts,ckpt_l1,ckpt_l2,ckpt_l3,ckpt_l4,ckpt_avoided,messages,net_bytes
HPCCG,reinit,8,25x25x25,2,ring,fixed,1,0,10,1,2,0.1,13,2,0,0,5,3,1,0,1,0,100,4096
HPCCG,replica,8,25x25x25,2,ring,fixed,2,0,10,0,4,0.1,14,2,0,0,0,0,0,0,0,0,200,8192
HPCCG,reinit,8,25x25x25,6,ring,fixed,1,0,10,3,4,0.3,17,6,0,0,5,3,1,0,1,0,100,4096
HPCCG,replica,8,25x25x25,6,ring,fixed,2,0,10,0,8,0.3,18,6,0,0,0,0,0,0,0,0,200,8192
`

func parseCSV(t *testing.T, body string) []cell {
	t.Helper()
	f := t.TempDir() + "/c.csv"
	if err := writeFile(f, body); err != nil {
		t.Fatal(err)
	}
	cells, err := readCampaign(f)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// The single-campaign table picks the lowest-total design per cell.
func TestCampaignWinners(t *testing.T) {
	cells := parseCSV(t, campaignA)
	var buf bytes.Buffer
	writeWinners(&buf, "a.csv", cells)
	out := buf.String()
	if !strings.Contains(out, "| HPCCG | 25x25x25 | 8 | 2 | reinit | 13.000 | replica |") {
		t.Errorf("k=2 winner row wrong:\n%s", out)
	}
	if !strings.Contains(out, "| HPCCG | 25x25x25 | 8 | 6 | replica | 18.000 | reinit |") {
		t.Errorf("k=6 winner row wrong:\n%s", out)
	}
}

// The two-campaign diff reports the crossover flip at k=6 and leaves the
// unchanged k=2 cell unflagged.
func TestCampaignDiff(t *testing.T) {
	a, b := parseCSV(t, campaignA), parseCSV(t, campaignB)
	var buf bytes.Buffer
	writeCampaignDiff(&buf, "a.csv", "b.csv", a, b)
	out := buf.String()
	if strings.Count(out, "**winner changed**") != 1 {
		t.Errorf("want exactly one winner-change flag:\n%s", out)
	}
	if !strings.Contains(out, "| replica | reinit |") {
		t.Errorf("k=6 flip not shown as replica -> reinit:\n%s", out)
	}
	if !strings.Contains(out, "1 of 2 shared cells changed winning design") {
		t.Errorf("summary line wrong:\n%s", out)
	}
}

// Malformed campaign input fails loudly rather than producing an empty
// report section.
func TestCampaignRejectsWrongCSV(t *testing.T) {
	f := t.TempDir() + "/bad.csv"
	if err := writeFile(f, "a,b,c\n1,2,3\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := readCampaign(f); err == nil || !strings.Contains(err.Error(), "missing column") {
		t.Errorf("wrong-schema CSV accepted: %v", err)
	}
}
