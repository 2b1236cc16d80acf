#!/usr/bin/env bash
# bench-smoke.sh — scaling-sweep smoke test with the packed-engine gate.
#
# Runs the -short BenchmarkFaultSimScaling row (the ~100-gate mult5
# sweep on both engines: reference and packed) and fails unless
# engine=packed is the fastest engine of every row in the same run.
# Comparing engines measured in the same run applies the bar without
# trusting cross-machine ns/op, so a packed-engine regression that
# loses to the serial oracle fails CI even on runners much slower than
# the recording machine. It also fails when a packed row makes no more
# gate_evals/op than its faults count: one seed evaluation per fault
# is the floor, so such a row would time seeding and not the
# propagation walk the gate is meant to bound. The benchmark itself
# re-checks that both engines return bit-identical detections. CI runs
# this as part of the bench-smoke step.
set -euo pipefail

cd "$(dirname "$0")/.."
out=$(go test -short -run '^$' -bench 'BenchmarkFaultSimScaling' -benchtime 3x -timeout 10m .)
echo "$out"

echo "== packed-engine gate (packed fastest per row, and walking) =="
echo "$out" | awk '
    $4 == "ns/op" && $1 ~ /^BenchmarkFaultSimScaling\// {
        split($1, a, "/")
        row = a[2]
        eng = a[3]
        sub(/-[0-9]+$/, "", eng)   # strip the -GOMAXPROCS suffix
        ns[row "," eng] = $3
        rows[row] = 1
        for (i = 3; i < NF; i++) {
            if ($(i + 1) == "gate_evals/op") evals[row "," eng] = $i
            if ($(i + 1) == "faults") faults[row "," eng] = $i
        }
    }
    END {
        if (length(rows) == 0) {
            print "no scaling rows in benchmark output" > "/dev/stderr"
            exit 1
        }
        fail = 0
        for (row in rows) {
            if (!((row "," "packed") in ns)) {
                printf "%s: no engine=packed measurement\n", row > "/dev/stderr"
                fail = 1
                continue
            }
            packed = ns[row "," "packed"]
            pe = evals[row "," "packed"]
            pf = faults[row "," "packed"]
            if (pe == "" || pf == "") {
                printf "%s: packed row reports no gate_evals/op or faults\n", row > "/dev/stderr"
                fail = 1
            } else {
                printf "%s: packed %s gate_evals/op for %s faults\n", row, pe, pf
                if (pe + 0 <= pf + 0) {
                    printf "%s: packed gate_evals/op %s does not exceed its %s faults: the row times seeding only\n", row, pe, pf > "/dev/stderr"
                    fail = 1
                }
            }
            for (key in ns) {
                split(key, k, ",")
                if (k[1] != row || k[2] == "packed") continue
                printf "%s: packed %.0f ns/op vs %s %.0f ns/op (%.1fx faster)\n", \
                    row, packed, k[2], ns[key], ns[key] / packed
                if (ns[key] <= packed) {
                    printf "%s: engine=packed is not faster than %s\n", row, k[2] > "/dev/stderr"
                    fail = 1
                }
            }
        }
        exit fail
    }
'
echo "bench smoke OK"
