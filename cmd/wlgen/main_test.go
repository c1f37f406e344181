package main

import (
	"io"
	"strings"
	"testing"
)

// TestRejectsImpossibleSeries: a step that is not positive would print
// forever (or, observed, size a slice from a division by zero), and a
// negative scale or horizon describes no workload.
func TestRejectsImpossibleSeries(t *testing.T) {
	for _, args := range [][]string{
		{"-step", "0"},
		{"-step", "-5"},
		{"-step", "NaN"},
		{"-step", "+Inf"},
		{"-mode", "observed", "-step", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-horizon", "-60"},
		{"-horizon", "NaN"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("wlgen %s was accepted", strings.Join(args, " "))
		}
	}
}

// TestSeriesShape: a valid request prints the header and one row per
// step, both endpoints included.
func TestSeriesShape(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "web", "-horizon", "3600", "-step", "600", "-scale", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 8 || lines[0] != "t_seconds,requests_per_second" || lines[1] != "0,0.000000" {
		t.Fatalf("series:\n%s", out.String())
	}
}
