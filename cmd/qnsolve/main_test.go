package main

import (
	"errors"
	"io"
	"strings"
	"testing"

	"vmprov/internal/queueing"
)

// TestRejectsImpossibleInput: each of these used to print NaN, a
// negative throughput or a silent k = 1, or to print rows forever.
func TestRejectsImpossibleInput(t *testing.T) {
	for _, args := range [][]string{
		{"-lambda", "100", "-tm", "0.105", "-ts", "0.25", "-m", "0"},
		{"-lambda", "100", "-tm", "0.105", "-ts", "0.25", "-m", "-2"},
		{"-lambda", "NaN", "-tm", "0.105", "-ts", "0.25"},
		{"-lambda", "100", "-tm", "NaN", "-ts", "0.25"},
		{"-lambda", "100", "-tm", "0.105", "-ts", "NaN"},
		{"-lambda", "10", "-tm", "0.1", "-ts", "0.05"}, // k = ⌊ts/tm⌋ = 0
		{"-sweep", "1:+Inf:1", "-tm", "0.105", "-ts", "0.25"},
		{"-sweep", "1:10:NaN", "-tm", "0.105", "-ts", "0.25"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("qnsolve %s was accepted", strings.Join(args, " "))
		}
	}
	// Sizing against QoS a provisioner would refuse used to print a fleet
	// size, and -rejtol -1 or -maxvms 0 printed it beside "no m meets QoS".
	for _, extra := range [][]string{
		{"-util", "2"}, {"-util", "-1"}, {"-util", "NaN"},
		{"-rej", "2"},
		{"-rejtol", "-1"}, {"-rejtol", "NaN"},
		{"-maxvms", "0"},
	} {
		args := append([]string{"-lambda", "30", "-tm", "0.105", "-ts", "0.25", "-size"}, extra...)
		if err := run(args, io.Discard); err == nil {
			t.Errorf("qnsolve %s was accepted", strings.Join(args, " "))
		}
	}
	// A fleet of no instances is Fleet.Validate's parameter error.
	if err := run([]string{"-lambda", "100", "-tm", "0.105", "-ts", "0.25", "-m", "0"}, io.Discard); !errors.Is(err, queueing.ErrParams) {
		t.Errorf("-m 0: %v, want queueing.ErrParams", err)
	}
	// An explicit -k is honored even where ⌊ts/tm⌋ < 1.
	if err := run([]string{"-lambda", "10", "-tm", "0.1", "-ts", "0.05", "-k", "1"}, io.Discard); err != nil {
		t.Errorf("-k 1 with ts < tm: %v", err)
	}
}

// TestSizeReportsInfeasibleQoS: when no fleet up to -maxvms meets QoS,
// the brute-force line says so instead of naming MaxVMs as feasible.
func TestSizeReportsInfeasibleQoS(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-size", "-lambda", "100000", "-tm", "0.105", "-ts", "0.25", "-maxvms", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "no m ≤ 10 meets QoS") || strings.Contains(s, "QoS-feasible m = 10") {
		t.Fatalf("infeasible sizing output:\n%s", s)
	}
	out.Reset()
	if err := run([]string{"-size", "-lambda", "1200", "-tm", "0.105", "-ts", "0.25"}, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "smallest QoS-feasible m = ") {
		t.Fatalf("feasible sizing output lost its brute-force line:\n%s", s)
	}
}

// TestSweepMarksInfeasibleRows: a sweep row whose load no fleet up to
// -maxvms can serve within QoS shows "none" as its minimal size.
func TestSweepMarksInfeasibleRows(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sweep", "10:1000:990", "-tm", "0.105", "-ts", "0.25", "-maxvms", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want a header, a column line and two rows:\n%s", out.String())
	}
	if f := strings.Fields(lines[2]); len(f) != 4 || f[2] == "none" {
		t.Errorf("λ=10 fits in 10 instances, row %q", lines[2])
	}
	if f := strings.Fields(lines[3]); len(f) != 4 || f[2] != "none" {
		t.Errorf("λ=1000 cannot fit in 10 instances, row %q", lines[3])
	}
}
