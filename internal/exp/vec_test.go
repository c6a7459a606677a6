package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestVecSweep(t *testing.T) {
	scale := testScale()
	scale.MaxCycles = 200_000 // keeps vecCycles at its floor
	rows, err := VecSweep(scale, []int{16}, 1, []string{"mac8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // NoVec + vec at one lane cap
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	novec, vec := rows[0], rows[1]
	if novec.Vec || !vec.Vec {
		t.Fatalf("arm ordering wrong: %+v", rows)
	}
	if novec.Groups != 0 || vec.Groups == 0 || vec.VecParts == 0 {
		t.Fatalf("class accounting wrong: %+v", rows)
	}
	if vec.WidestGroup > 16 {
		t.Fatalf("lane cap not honored: %+v", vec)
	}
	if novec.SpeedupVsNoVec != 1 || vec.SpeedupVsNoVec <= 0 {
		t.Fatalf("speedup anchoring wrong: %+v", rows)
	}
	if err := CheckVecMatch(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Cycles == 0 || r.Seconds <= 0 || r.CyclesPerSec <= 0 {
			t.Fatalf("empty measurement: %+v", r)
		}
		if r.Instances != 64 || r.Nodes == 0 {
			t.Fatalf("design metadata missing: %+v", r)
		}
	}
	out := RenderVec(rows)
	if !strings.Contains(out, "mac8") {
		t.Fatalf("render missing cell:\n%s", out)
	}
	var csvb, jsonb bytes.Buffer
	if err := WriteVecCSV(&csvb, rows); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(csvb.String()), "\n")); got != 3 {
		t.Fatalf("CSV rows = %d, want 3", got)
	}
	var back []VecRow
	if err := WriteVecJSON(&jsonb, rows); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(jsonb.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("JSON round-trip lost rows")
	}
}

func TestVecSweepFilters(t *testing.T) {
	scale := testScale()
	cells, err := vecDesigns(scale, []string{"noc8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].name != "noc8" {
		t.Fatalf("filter failed: %+v", cells)
	}
	all, err := vecDesigns(scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 { // mac8, mac16, noc8 at quick scale
		t.Fatalf("expected 3 designs, got %d", len(all))
	}
}

func TestCheckVecMatch(t *testing.T) {
	ok := []VecRow{{Design: "mac8", MaxLanes: 16, StateMatch: true},
		{Design: "mac8", MaxLanes: 16, Vec: true, StateMatch: true}}
	if err := CheckVecMatch(ok); err != nil {
		t.Fatalf("all rows match, got %v", err)
	}
	bad := []VecRow{{Design: "mac8", MaxLanes: 16, StateMatch: true},
		{Design: "mac8", MaxLanes: 16, Vec: true},
		{Design: "mac16", MaxLanes: 64, Vec: true},
		{Design: "noc8", MaxLanes: 64, Vec: true, StateMatch: true}}
	err := CheckVecMatch(bad)
	if err == nil {
		t.Fatal("a state_match=false row passed")
	}
	if msg := err.Error(); !strings.Contains(msg, "mac8/lanes=16, mac16/lanes=64") ||
		strings.Contains(msg, "noc8") {
		t.Fatalf("error must name exactly the mismatched cells: %v", err)
	}
}
