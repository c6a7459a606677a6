package exp

import (
	"strings"
	"testing"
)

func TestCheckGenMatch(t *testing.T) {
	ok := []GenRow{{Design: "r16", StateMatch: true}, {Design: "mac16", StateMatch: true}}
	if err := CheckGenMatch(ok); err != nil {
		t.Fatalf("all rows match, got %v", err)
	}
	bad := []GenRow{{Design: "r16", StateMatch: true}, {Design: "mac16"}, {Design: "fab", Degraded: true}}
	err := CheckGenMatch(bad)
	if err == nil {
		t.Fatal("a state_match=false row passed")
	}
	if msg := err.Error(); !strings.Contains(msg, "mac16, fab") || strings.Contains(msg, "r16") {
		t.Fatalf("error must name exactly the mismatched designs: %v", err)
	}
}
