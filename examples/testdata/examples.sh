#!/usr/bin/env bash
# Runs every example program at its default flags and writes each one's
# stdout and exit code into <outdir> as <example>.stdout and
# <example>.exit. `make examples-smoke` builds the examples into
# <bindir> and diffs <outdir> against examples/testdata/golden/; pointing
# <outdir> at examples/testdata/golden/ re-records the golden, which is
# only for a deliberate output change.
#
# usage: examples.sh <bindir> <outdir>
set -u
bindir=$1
out=$2
mkdir -p "$out"

for bin in "$bindir"/*; do
	name=$(basename "$bin")
	"$bin" >"$out/$name.stdout"
	echo $? >"$out/$name.exit"
done
