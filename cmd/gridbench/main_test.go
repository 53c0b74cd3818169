package main

import (
	"strings"
	"testing"

	"gridproxy/internal/experiments"
)

func TestChoose(t *testing.T) {
	got, err := choose(experiments.All, "E6, e2")
	if err != nil || len(got) != 2 || got[0].Name != "e2" || got[1].Name != "e6" {
		t.Fatalf("choose(E6, e2) = %v, %v", got, err)
	}
	if got, err := choose(experiments.All, "all"); err != nil || len(got) != len(experiments.All) {
		t.Fatalf("choose(all) = %d entries, %v", len(got), err)
	}
	for spec, bad := range map[string]string{"e6,e99": `"e99"`, "e99": `"e99"`, "": `""`, "e6,": `""`} {
		if _, err := choose(experiments.All, spec); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("choose(%q) = %v, want an error naming %s", spec, err, bad)
		}
	}
}
