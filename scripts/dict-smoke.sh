#!/usr/bin/env bash
# dict-smoke.sh — persistent fault-dictionary smoke test.
#
# Builds cpsinw-serve and cpsinw-diagnose (race detector on), boots the
# server with a dictionary store, runs a real campaign, diagnoses an
# observed failure over HTTP, then kills the server and boots a fresh
# process over the same store: the second life must answer /v1/diagnose
# from the persisted artifact with zero re-simulation (its campaign
# counter stays at 0). Finally the offline CLI must address the same
# artifact — inspect and match it by key, and rebuild the same campaign
# into a fresh store landing on the byte-identical content address,
# proving CLI-built dictionaries and server-built dictionaries share
# one key scheme. CI runs this as the dict-smoke job.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
addr="127.0.0.1:18081"
dictdir="$workdir/dict"

cleanup() {
    [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build (race) =="
go build -race -o "$workdir/cpsinw-serve" ./cmd/cpsinw-serve
go build -race -o "$workdir/cpsinw-diagnose" ./cmd/cpsinw-diagnose

boot() {
    "$workdir/cpsinw-serve" -addr "$addr" -debug-addr "" -dict-dir "$dictdir" \
        -log-format json >>"$workdir/serve.log" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 100); do
        curl -sf "http://$addr/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "server never became ready" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}

echo "== boot (first life) =="
boot

echo "== campaign with dictionary capture =="
id=$(curl -sf -X POST "http://$addr/v1/campaigns" \
    -d '{"benchmark":"mult3","faults":{"stuck_at":true,"polarity":true,"stuck_open":true,"stuck_on":true,"iddq":true}}' \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
[[ -n "$id" ]] || { echo "no campaign id in submit response" >&2; exit 1; }

state=""
for _ in $(seq 1 300); do
    state=$(curl -sf "http://$addr/v1/campaigns/$id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [[ "$state" == "done" ]] && break
    [[ "$state" == "failed" || "$state" == "canceled" ]] && break
    sleep 0.2
done
[[ "$state" == "done" ]] || {
    echo "campaign ended in state '$state'" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}

echo "== dictionary artifact =="
curl -sf "http://$addr/v1/campaigns/$id/dictionary" >"$workdir/dict.json"
key=$(sed -n 's/.*"key": *"\([0-9a-f]\{64\}\)".*/\1/p' "$workdir/dict.json" | head -1)
[[ -n "$key" ]] || { echo "no artifact key in dictionary metadata" >&2; cat "$workdir/dict.json" >&2; exit 1; }
[[ -f "$dictdir/$key.cpd" ]] || { echo "artifact $key.cpd missing from the store" >&2; ls "$dictdir" >&2; exit 1; }
echo "artifact $key"

# mult3 is simulated exhaustively (64 patterns); an observation that
# fails every pattern overlaps every detected fault, so a non-empty
# candidate ranking is guaranteed.
failing=$(seq -s, 0 63)

echo "== diagnose (first life) =="
curl -sf -X POST "http://$addr/v1/diagnose" \
    -d "{\"campaign_id\":\"$id\",\"failing_patterns\":[$failing]}" >"$workdir/diag1.json"
grep -q '"fault":' "$workdir/diag1.json" || {
    echo "diagnosis returned no candidates" >&2
    cat "$workdir/diag1.json" >&2
    exit 1
}

echo "== restart over the same store =="
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
boot

echo "== diagnose (second life, zero re-simulation) =="
curl -sf -X POST "http://$addr/v1/diagnose" \
    -d "{\"key\":\"$key\",\"failing_patterns\":[$failing]}" >"$workdir/diag2.json"
grep -q '"fault":' "$workdir/diag2.json" || {
    echo "restarted server returned no candidates" >&2
    cat "$workdir/diag2.json" >&2
    exit 1
}
# Fetch before matching: under pipefail, grep -q exiting on its first
# match can fail the writer's remaining output (curl exit 23, or
# SIGPIPE) and so the pipeline.
legacy=$(curl -sf "http://$addr/metrics?format=json" || true)
grep -q '"jobs_completed": *0' <<<"$legacy" || {
    echo "restarted server ran a campaign to answer a diagnosis" >&2
    exit 1
}

echo "== offline CLI against the server's artifact =="
inspect=$("$workdir/cpsinw-diagnose" inspect -dir "$dictdir" -key "$key" || true)
grep -q 'mult3' <<<"$inspect" || {
    echo "cpsinw-diagnose inspect could not read the server's artifact" >&2
    exit 1
}
match=$("$workdir/cpsinw-diagnose" match -dir "$dictdir" -key "$key" -fail "$failing" -top 3 || true)
grep -q 'diagnosis:' <<<"$match" || {
    echo "cpsinw-diagnose match produced no ranking" >&2
    exit 1
}

echo "== CLI rebuild lands on the same content address =="
"$workdir/cpsinw-diagnose" build -dir "$workdir/dict2" -circuit mult3 -iddq >"$workdir/build.txt"
grep -q "$key" "$workdir/build.txt" || {
    echo "CLI-built artifact key differs from the server's for the same campaign" >&2
    cat "$workdir/build.txt" >&2
    exit 1
}
[[ -f "$workdir/dict2/$key.cpd" ]] || {
    echo "CLI-built artifact missing under the shared key" >&2
    ls "$workdir/dict2" >&2
    exit 1
}

echo "dict smoke OK"
