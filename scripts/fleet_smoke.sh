#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end determinism and durability drill for the
# multi-tenant fleet control plane (cmd/fleetsim).
#
# The drill asserts the fleet package's externally visible contracts:
#
#   * two identical runs produce the same fleet hash and the same
#     per-tenant records,
#   * the worker count is invisible in the results (-workers 1 vs 4),
#   * the Prometheus dump carries one tenant-labelled series per tenant,
#   * a fleet stopped at a round boundary (-max-rounds) and restarted on
#     its state dir warm-starts every tenant and finishes bit-identical
#     to an uninterrupted run, having written one segment per round and
#     one series file that the restart reads every tenant's series from,
#   * a reduced fleet runs clean under the race detector.
#
# Corruption isolation (a damaged record or a torn segment costs only the
# tenants it covers their newest checkpoint) is drilled in-process by
# internal/fleet's TestCorruptTenantFallsBackCold and
# TestTornSegmentTailFallsBack.
#
# Tunables: FLEET_TENANTS (smoke fleet size, default 200),
# FLEET_ACCEPT_TENANTS (large determinism run, default 1000; 0 skips),
# FLEET_RACE_TENANTS (race-detector run, default 24; 0 skips).
set -euo pipefail
cd "$(dirname "$0")/.."

tenants="${FLEET_TENANTS:-200}"
accept="${FLEET_ACCEPT_TENANTS:-1000}"
race_tenants="${FLEET_RACE_TENANTS:-24}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/fleetsim" ./cmd/fleetsim

fs() { "$work/fleetsim" "$@"; }
hash_of() { jq -r .fleet_hash "$1"; }
# The deterministic per-tenant projection: everything except wall-clock
# timing and derived floats.
tenant_rows() { jq '[.per_tenant[] | {id, alloc_hash, steps, violations, cost_node_steps, final_nodes}]' "$1"; }

echo "== fleet smoke: $tenants tenants =="

echo "-- determinism: two identical runs agree"
fs -tenants "$tenants" -workers 4 -out "$work/a.json" -metrics "$work/a.metrics"
fs -tenants "$tenants" -workers 4 -out "$work/b.json"
[ "$(hash_of "$work/a.json")" = "$(hash_of "$work/b.json")" ]
[ "$(tenant_rows "$work/a.json")" = "$(tenant_rows "$work/b.json")" ]

echo "-- determinism: -workers 1 matches -workers 4"
fs -tenants "$tenants" -workers 1 -out "$work/w1.json"
[ "$(hash_of "$work/w1.json")" = "$(hash_of "$work/a.json")" ]
[ "$(tenant_rows "$work/w1.json")" = "$(tenant_rows "$work/a.json")" ]

echo "-- summary sanity"
jq -e --argjson n "$tenants" '.tenants == $n' "$work/a.json" > /dev/null
jq -e '.rounds > 0 and .steps > 0 and .cost_node_steps > 0' "$work/a.json" > /dev/null
jq -e --argjson n "$tenants" '.cold_starts == $n and .warm_starts == 0' "$work/a.json" > /dev/null
jq -e --argjson n "$tenants" '.per_tenant | length == $n' "$work/a.json" > /dev/null
# One decision record lands per tenant per round.
jq -e '.decisions_total == (.tenants * .rounds)' "$work/a.json" > /dev/null

echo "-- tenant-labelled metrics"
grep -q 'robustscale_fleet_tenant_rounds_total{tenant="t00000"}' "$work/a.metrics"
last="t$(printf '%05d' $((tenants - 1)))"
grep -q "robustscale_fleet_tenant_rounds_total{tenant=\"$last\"}" "$work/a.metrics"
labelled=$(grep -c '^robustscale_fleet_tenant_rounds_total{' "$work/a.metrics")
[ "$labelled" -eq "$tenants" ]
grep -q '^robustscale_fleet_tenant_violations_total{tenant="' "$work/a.metrics"

echo "-- kill-restart: stop at a round boundary, warm-resume bit-identically"
fs -tenants "$tenants" -state-dir "$work/state" -max-rounds 3 -out "$work/p1.json"
jq -e '.rounds == 3' "$work/p1.json" > /dev/null
# One committed file per round, nothing per tenant, and the generated
# series once beside them.
[ "$(ls "$work/state" | tr '\n' ' ')" = "segment-00000000.seg segment-00000001.seg segment-00000002.seg series-00000000.ser " ]
jq -e '.series_restored == null' "$work/p1.json" > /dev/null
fs -tenants "$tenants" -state-dir "$work/state" -out "$work/p2.json"
jq -e --argjson n "$tenants" '.warm_starts == $n and .cold_starts == 0' "$work/p2.json" > /dev/null
# The restart recomputed no series and left the file alone.
jq -e --argjson n "$tenants" '.series_restored == $n' "$work/p2.json" > /dev/null
[ "$(ls "$work/state" | grep -c '^series-.*\.ser$')" -eq 1 ]
[ -f "$work/state/series-00000000.ser" ]
[ "$(hash_of "$work/p2.json")" = "$(hash_of "$work/a.json")" ]
[ "$(tenant_rows "$work/p2.json")" = "$(tenant_rows "$work/a.json")" ]

if [ "$accept" -gt 0 ]; then
  echo "-- scale: $accept tenants, -workers 1 vs 4"
  fs -tenants "$accept" -workers 1 -per-tenant=false -out "$work/big1.json"
  fs -tenants "$accept" -workers 4 -per-tenant=false -out "$work/big4.json"
  [ "$(hash_of "$work/big1.json")" = "$(hash_of "$work/big4.json")" ]
  jq -e --argjson n "$accept" '.tenants == $n' "$work/big1.json" > /dev/null
fi

if [ "$race_tenants" -gt 0 ]; then
  echo "-- race detector: $race_tenants tenants"
  go run -race ./cmd/fleetsim -tenants "$race_tenants" -workers 4 -out /dev/null
fi

echo "fleet smoke: PASS"
