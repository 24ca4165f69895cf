#!/bin/sh
# Diffs the stdout of cmd/lowerbound, of cmd/meshroute on the two dynamic
# scenario specs and on the smoke spec with -trace -viz, and of three
# examples against the goldens in this directory; any difference fails. Run from the repository root:
# sh testdata/cli/check.sh
set -eu
dir=testdata/cli
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/lowerbound ./cmd/meshroute ./examples/quickstart ./examples/adversary ./examples/hhrouting
check() {
	golden=$1
	shift
	"$@" | diff -u "$dir/$golden" -
	echo "ok  $golden"
}
check lowerbound-general-n216-k1.txt "$bin/lowerbound" -n 216 -k 1 -complete
check lowerbound-dimorder-n120-k1.txt "$bin/lowerbound" -construction dimorder -router thm15 -n 120 -k 1 -complete
check lowerbound-ff-n128-k2.txt "$bin/lowerbound" -construction ff -n 128 -k 2 -complete
check lowerbound-hh-n120-k1-h2.txt "$bin/lowerbound" -construction hh -n 120 -k 1 -h 2 -complete
check lowerbound-torus-n120-k1.txt "$bin/lowerbound" -construction torus -n 120 -k 1 -verify
check scenario-dynamic-dimorder-n12-k2.txt "$bin/meshroute" -scenario testdata/scenarios/dynamic-dimorder-n12-k2.json
check scenario-dynamic-thm15-n12-k1.txt "$bin/meshroute" -scenario testdata/scenarios/dynamic-thm15-n12-k1.json
# -viz names the trace file, which lives in the temporary directory.
smokeviz() {
	"$bin/meshroute" -scenario testdata/scenarios/smoke.json -trace "$bin/t.jsonl" -viz | sed "s|$bin/|TMP/|"
}
check scenario-smoke-viz.txt smokeviz
check example-quickstart.txt "$bin/quickstart"
check example-adversary.txt "$bin/adversary"
check example-hhrouting.txt "$bin/hhrouting"
