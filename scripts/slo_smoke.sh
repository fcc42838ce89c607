#!/usr/bin/env bash
# slo_smoke.sh — end-to-end drill for the fleet health plane: burn-rate
# alert determinism, readiness probes across a warm restart, and
# cardinality-capped exposition.
#
# The drill asserts the health plane's externally visible contracts:
#
#   * two identical fault-injected replays burn their error budget
#     identically — the deterministic "slo:" summary line matches
#     byte-for-byte and records alert transitions,
#   * alert transitions land in the journal as "alert" events served by
#     /journal?kind=alert, and /slo and /alerts answer with live state,
#   * /healthz answers while the daemon is still training but /readyz
#     stays 503 until training completes; a daemon warm-restarted from a
#     checkpoint flips /readyz to 200 without retraining,
#   * a large fleet with a tight -label-limit keeps the Prometheus
#     exposition bounded: the tenant-labelled series collapse into
#     "other" past the cap and the overflow counter records the rest.
#
# That the SLO plane leaves the fleet hash bit-identical is pinned by
# cmd/fleetsim's TestGoldenFleetHash.
#
# Tunables: SLO_BIG_TENANTS (cardinality run, default 1000; 0 skips).
set -euo pipefail
cd "$(dirname "$0")/.."

big="${SLO_BIG_TENANTS:-1000}"
work="$(mktemp -d)"
trap 'rm -rf "$work"; kill $(jobs -p) 2>/dev/null || true' EXIT

go build -o "$work/autoscaled" ./cmd/autoscaled
go build -o "$work/fleetsim" ./cmd/fleetsim

echo "== slo smoke =="

echo "-- burn-rate alerts fire deterministically under the all-class chaos preset"
"$work/autoscaled" -days 2 -epochs 2 -chaos all -seed 7 > "$work/r1.log" 2>&1
"$work/autoscaled" -days 2 -epochs 2 -chaos all -seed 7 > "$work/r2.log" 2>&1
grep '^slo:' "$work/r1.log"
[ "$(grep '^slo:' "$work/r1.log")" = "$(grep '^slo:' "$work/r2.log")" ]
transitions=$(sed -En 's/^slo:.* ([0-9]+) transitions.*/\1/p' "$work/r1.log")
[ "${transitions:-0}" -gt 0 ]
grep -q 'first firing tick [0-9]' "$work/r1.log"

echo "-- liveness up while training, readiness 503 until trained"
"$work/autoscaled" -days 7 -epochs 40 -listen 127.0.0.1:18095 > "$work/train.log" 2>&1 &
train_pid=$!
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:18095/healthz > /dev/null 2>&1 && break
  sleep 1
done
curl -sf http://127.0.0.1:18095/healthz > /dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18095/readyz)
[ "$code" = "503" ]
kill "$train_pid" 2>/dev/null || true
wait "$train_pid" 2>/dev/null || true

echo "-- readiness flips to 200 across a warm restart, alerts reach the journal"
"$work/autoscaled" -days 1 -epochs 1 -horizon 12 -chaos all -state-dir "$work/state" \
  -listen 127.0.0.1:18096 > "$work/p1.log" 2>&1 &
p1=$!
for i in $(seq 1 60); do
  code=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18096/readyz 2>/dev/null)
  [ "$code" = "200" ] && break
  sleep 1
done
[ "$code" = "200" ]
# The fault-injected replay breaches hard enough that alert transitions
# land in the journal well before the replay ends.
for i in $(seq 1 60); do
  curl -sf 'http://127.0.0.1:18096/journal?kind=alert' 2>/dev/null \
    | jq -e '.events | length > 0' > /dev/null 2>&1 && break
  sleep 1
done
curl -sf 'http://127.0.0.1:18096/journal?kind=alert' | jq -e '.events | length > 0' > /dev/null
curl -sf http://127.0.0.1:18096/slo | jq -e '.observations_total > 0 and .alert_transitions > 0' > /dev/null
curl -sf http://127.0.0.1:18096/alerts | jq -e 'has("active") and (.history | length > 0)' > /dev/null
kill "$p1" 2>/dev/null || true
wait "$p1" 2>/dev/null || true
# Warm restart on the same state dir: no retraining, ready again, and
# the restored SLO window keeps its budget accounting.
"$work/autoscaled" -days 1 -epochs 1 -horizon 12 -chaos all -state-dir "$work/state" \
  -listen 127.0.0.1:18097 > "$work/p2.log" 2>&1 &
p2=$!
for i in $(seq 1 60); do
  code=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18097/readyz 2>/dev/null)
  [ "$code" = "200" ] && break
  sleep 1
done
[ "$code" = "200" ]
grep -q "warm start" "$work/p2.log"
! grep -q "training tft" "$work/p2.log"
curl -sf http://127.0.0.1:18097/slo | jq -e '.observations_total > 0' > /dev/null
kill "$p2" 2>/dev/null || true
wait "$p2" 2>/dev/null || true

if [ "$big" -gt 0 ]; then
  echo "-- cardinality guard: $big tenants, -label-limit 64 bounds the exposition"
  "$work/fleetsim" -tenants "$big" -per-tenant=false -label-limit 64 \
    -metrics "$work/big.metrics" -out /dev/null
  labelled=$(grep -c '^robustscale_fleet_tenant_rounds_total{' "$work/big.metrics")
  [ "$labelled" -eq 65 ] # 64 real tenants + the "other" overflow series
  grep -q 'robustscale_fleet_tenant_rounds_total{tenant="other"}' "$work/big.metrics"
  overflow=$(awk -F' ' '/^robustscale_metric_label_overflow_total\{/ {sum += $2} END {print int(sum)}' "$work/big.metrics")
  [ "${overflow:-0}" -gt 0 ]
  total=$(wc -l < "$work/big.metrics")
  [ "$total" -lt 1000 ] # whole dump stays bounded despite 1000 tenants
fi

echo "slo smoke: PASS"
