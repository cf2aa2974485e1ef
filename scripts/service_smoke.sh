#!/usr/bin/env bash
# Service smoke test: boot an antserve daemon, join two antwork
# workers, and drive it end to end with antctl over the HTTP API —
# one job per tenant, per-tenant queue quota enforcement (429), job
# cancellation, SIGTERM worker drain, and clean daemon shutdown.
# Everything must exit 0.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

HTTP_ADDR=${HTTP_ADDR:-127.0.0.1:7099}
FLEET_ADDR=${FLEET_ADDR:-127.0.0.1:7098}

echo "== build"
go build -o "$workdir" ./cmd/antserve ./cmd/antwork ./cmd/antctl

ctl() { "$workdir/antctl" -server "http://$HTTP_ADDR" "$@"; }

# Extracts "id" from antctl's JSON output.
job_id() { grep -o '"id": *[0-9]*' | head -1 | grep -o '[0-9]*'; }

echo "== start antserve"
"$workdir/antserve" -http "$HTTP_ADDR" -fleet "$FLEET_ADDR" \
    -journal "$workdir/journal.jsonl" \
    -tenant 'analytics:weight=2' -tenant 'adhoc' -tenant 'batch' \
    -tenant 'limited:max_running=1,max_queued=1' &
serve_pid=$!
for i in $(seq 1 50); do
    ctl health >/dev/null 2>&1 && break
    if [ "$i" = 50 ]; then echo "antserve never became healthy" >&2; exit 1; fi
    sleep 0.2
done

echo "== join two workers"
"$workdir/antwork" -coordinator "$FLEET_ADDR" -slots 2 &
w1=$!
"$workdir/antwork" -coordinator "$FLEET_ADDR" -slots 2 &
w2=$!
for i in $(seq 1 50); do
    live=$(ctl workers | grep -c live || true)
    [ "$live" -ge 2 ] && break
    if [ "$i" = 50 ]; then echo "workers never joined" >&2; exit 1; fi
    sleep 0.2
done

echo "== one job per tenant over HTTP"
first_id=""
for tenant in analytics adhoc batch; do
    out=$(ctl submit -job exp/wordcount \
        -spec '{"Scale":0.2,"Seed":42,"Splits":6,"Reducers":4}' \
        -tenant "$tenant" -wait)
    id=$(echo "$out" | job_id)
    [ -n "$first_id" ] || first_id=$id
    echo "   tenant $tenant: job $id succeeded"
done

echo "== output endpoint"
lines=$(ctl output -id "$first_id" | wc -l)
if [ "$lines" -lt 1 ]; then echo "job $first_id output is empty" >&2; exit 1; fi
echo "   job $first_id: $lines output lines"

echo "== quota enforcement (max_running=1, max_queued=1)"
# The first job must still be running when the third submission lands:
# at Scale 3 a job ran in ~0.2 s, about as long as two antctl launches
# on a loaded machine, and the check flaked. Scale 8 runs ~0.5 s.
slow='{"Scale":8,"Seed":7,"Splits":8,"Reducers":4}'
l1=$(ctl submit -job exp/wordcount -spec "$slow" -tenant limited | job_id)
l2=$(ctl submit -job exp/wordcount -spec "$slow" -tenant limited | job_id)
if ctl submit -job exp/wordcount -spec "$slow" -tenant limited 2>"$workdir/quota.err"; then
    echo "third limited submission should have been rejected" >&2
    exit 1
fi
grep -qi quota "$workdir/quota.err"
echo "   third submission rejected: $(cat "$workdir/quota.err")"

echo "== cancel the limited jobs"
ctl cancel -id "$l1" >/dev/null
ctl cancel -id "$l2" >/dev/null

echo "== SIGTERM drains a worker gracefully"
kill -TERM "$w1"
wait "$w1"
echo "   worker drained and exited 0"

echo "== clean shutdown"
kill -TERM "$w2"
wait "$w2"
kill -TERM "$serve_pid"
wait "$serve_pid"
if [ ! -s "$workdir/journal.jsonl" ]; then
    echo "journal is missing or empty" >&2
    exit 1
fi
echo "ok: service smoke passed"
