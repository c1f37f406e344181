#!/usr/bin/env bash
# Runs the vmprovsim invocations whose output the CLI golden pins and
# writes each one's stdout, stderr and exit code into <outdir> as
# <case>.stdout, <case>.stderr and <case>.exit. `make cli-golden` diffs
# <outdir> against testdata/cli/; pointing <outdir> at testdata/cli/
# re-records the golden, which is only for a deliberate output change.
#
# usage: cli.sh <vmprovsim binary> <outdir>
set -u
bin=$1
out=$2
mkdir -p "$out"

run() {
	local name=$1
	shift
	"$bin" "$@" >"$out/$name.stdout" 2>"$out/$name.stderr"
	echo $? >"$out/$name.exit"
}

run web-all -scenario web -scale 0.05 -horizon 7200 -reps 2 -all
run web-all-csv -scenario web -scale 0.05 -horizon 7200 -reps 2 -all -csv
run sci-all-csv -scenario sci -scale 0.3 -reps 2 -all -csv
run web-reps -scenario web -scale 0.05 -horizon 3600 -reps 3
run web-static-csv -scenario web -scale 0.05 -horizon 3600 -reps 3 -csv -policy static:4
run web-hybrid-all -scenario web -scale 0.05 -horizon 3600 -mode hybrid -all -reps 2
run sci-series -scenario scientific -scale 0.2 -policy adaptive -series
run bogus-policy -scenario web -policy bogus
run static-ceiling -scenario web -scale 0.05 -horizon 600 -policy static:50 -reps 1
