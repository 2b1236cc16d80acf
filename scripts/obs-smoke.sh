#!/usr/bin/env bash
# obs-smoke.sh — end-to-end observability smoke test.
#
# Builds cpsinw-serve (race detector on), boots it, submits a real
# campaign, follows the SSE stream to its terminal frame, checks
# /healthz, the trace endpoint (one shard span, a merge span, every
# span ended) and the legacy JSON metrics form,
# pipes the final /metrics scrape through the exposition linter, and
# checks the JSON log for the access-log and campaign-finished lines.
# Any malformed exposition line, missing progress frame or log line, or
# non-terminal stream end fails the script. CI runs this as the
# obs-smoke job.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
addr="127.0.0.1:18080"
debug="127.0.0.1:16060"

cleanup() {
    [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build (race) =="
go build -race -o "$workdir/cpsinw-serve" ./cmd/cpsinw-serve
go build -o "$workdir/promlint" ./internal/obs/promlint

echo "== boot =="
"$workdir/cpsinw-serve" -addr "$addr" -debug-addr "$debug" \
    -log-format json -progress-interval 10ms >"$workdir/serve.log" 2>&1 &
server_pid=$!

for _ in $(seq 1 100); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
# Each check fetches before matching: under pipefail, grep -q exiting
# on its first match can fail curl's remaining write (exit 23) and so
# the pipeline.
health=$(curl -sf "http://$addr/healthz" || true)
grep -q '"ready": *true' <<<"$health" || {
    echo "server never became ready" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}

echo "== submit campaign =="
id=$(curl -sf -X POST "http://$addr/v1/campaigns" \
    -d '{"benchmark":"mult3","faults":{"stuck_at":true,"polarity":true,"stuck_open":true,"bridges":true,"iddq":true},"atpg":true}' \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
[[ -n "$id" ]] || { echo "no campaign id in submit response" >&2; exit 1; }
echo "campaign $id"

echo "== follow SSE to the terminal frame =="
curl -sN --max-time 60 "http://$addr/v1/campaigns/$id/events" >"$workdir/events.txt"
grep -q '^event: progress$' "$workdir/events.txt" || {
    echo "no progress frame streamed" >&2
    cat "$workdir/events.txt" >&2
    exit 1
}
tail -5 "$workdir/events.txt" | grep -q '"state":"done"' || {
    echo "stream did not end with a terminal done state" >&2
    tail -5 "$workdir/events.txt" >&2
    exit 1
}

echo "== trace =="
curl -sf "http://$addr/v1/campaigns/$id/trace" >"$workdir/trace.json"
grep -q '"name": *"campaign"' "$workdir/trace.json" || {
    echo "trace endpoint missing the campaign root span" >&2
    exit 1
}
# The server has no result store, so the campaign ran as the one-shard
# plan: the one campaign path shows a shard span and a merge span, and
# every span that started has ended (an open span has no "end").
for span in shard merge; do
    grep -q "\"name\": *\"$span\"" "$workdir/trace.json" || {
        echo "trace has no $span span: a second campaign path ran" >&2
        cat "$workdir/trace.json" >&2
        exit 1
    }
done
starts=$(grep -o '"start":' "$workdir/trace.json" | wc -l)
ends=$(grep -o '"end":' "$workdir/trace.json" | wc -l)
[[ "$starts" -eq "$ends" ]] || {
    echo "trace has $starts spans but only $ends ended" >&2
    cat "$workdir/trace.json" >&2
    exit 1
}

echo "== metrics (prometheus + lint) =="
curl -sf "http://$addr/metrics" >"$workdir/metrics.txt"
"$workdir/promlint" "$workdir/metrics.txt"
grep -q '^cpsinw_jobs_completed_total 1$' "$workdir/metrics.txt" || {
    echo "completed counter missing from the scrape" >&2
    grep cpsinw_jobs "$workdir/metrics.txt" >&2 || true
    exit 1
}
# The campaign named no engine, so it ran packed: the packed gate-eval
# series must have counted its work, not merely be exported.
packed_evals=$(sed -n 's/^cpsinw_faultsim_gate_evals_total{engine="packed"} \([0-9][0-9]*\)$/\1/p' "$workdir/metrics.txt")
[[ -n "$packed_evals" && "$packed_evals" -gt 0 ]] || {
    echo "packed gate-eval counter missing or zero after the campaign" >&2
    grep cpsinw_faultsim_gate_evals_total "$workdir/metrics.txt" >&2 || true
    exit 1
}

echo "== metrics (legacy json) =="
legacy=$(curl -sf "http://$addr/metrics?format=json" || true)
grep -q '"jobs_completed": *1' <<<"$legacy" || {
    echo "legacy JSON metrics missing jobs_completed" >&2
    exit 1
}

echo "== pprof debug listener =="
curl -sf "http://$debug/debug/pprof/" >/dev/null
vars=$(curl -sf "http://$debug/debug/vars" || true)
grep -q '"cpsinw"' <<<"$vars" || {
    echo "expvar snapshot missing" >&2
    exit 1
}

echo "== access log =="
grep -q '"msg":"http request"' "$workdir/serve.log" || {
    echo "no structured access-log lines" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}

echo "== lifecycle log =="
# The worker logs "campaign finished" just after the stream's terminal
# frame, so allow it a moment. A service logger wired to discard fails
# here.
finished='"level":"INFO","msg":"campaign finished",.*"job":"'"$id"'"'
for _ in $(seq 1 50); do
    grep -q "$finished" "$workdir/serve.log" && break
    sleep 0.1
done
grep -q "$finished" "$workdir/serve.log" || {
    echo "no INFO campaign finished line for $id" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}

echo "obs smoke OK"
