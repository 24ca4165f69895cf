#!/bin/sh
# Diffs the stdout of cmd/lowerbound, of cmd/meshroute on the two dynamic
# scenario specs, on the smoke spec with -trace -viz and on two flag-built
# runs, the stdout and stderr of five meshroute -dump-scenario runs (the
# flag-to-spec mapping and its fingerprint), and the stdout of cmd/figures
# and of five examples against the goldens in this directory; any
# difference fails.
# Run from the repository root:
# sh testdata/cli/check.sh
set -eu
dir=testdata/cli
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/lowerbound ./cmd/meshroute ./cmd/figures ./examples/quickstart ./examples/adversary ./examples/hhrouting ./examples/onalg ./examples/visualize
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
# -dump-scenario prints the spec on stdout and its fingerprint on stderr.
dump() {
	"$bin/meshroute" "$@" -dump-scenario 2>&1
}
check dump-defaults.txt dump
check dump-zigzag-n24-k3-rotation.txt dump -router zigzag -n 24 -k 3 -workload rotation
check dump-rand-zigzag-n16-hh-torus.txt dump -router rand-zigzag -n 16 -workload hh -h 3 -seed 9 -router-seed 5 -torus -analyze -watchdog 40 -steps 900 -metrics-out run.jsonl
check dump-zigzag-n20-fault-aware.txt dump -router zigzag -fault-aware -fault-links 3 -fault-stalls 2 -fault-perm 0.3 -n 20 -workload transpose
check dump-zigzag-n12-faults.txt dump -router zigzag -fault-links 2 -fault-horizon 33 -fault-seed 4 -fault-down 7 -fault-stall 3 -n 12 -workload reversal
check clt-n27-transpose.txt "$bin/meshroute" -router clt -n 27 -workload transpose
check dimorder-n16-k2-random.txt "$bin/meshroute" -router dimorder -n 16 -k 2 -workload random -seed 3
check example-quickstart.txt "$bin/quickstart"
check example-adversary.txt "$bin/adversary"
check example-hhrouting.txt "$bin/hhrouting"
check example-onalg.txt "$bin/onalg"
check example-visualize.txt "$bin/visualize"
check figures.txt "$bin/figures"
