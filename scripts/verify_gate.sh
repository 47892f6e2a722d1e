#!/bin/sh
# verify_gate.sh — the standing differential-verification gate. Three layers:
#
#  1. The in-process verify suite under the race detector: coverage model,
#     lockstep comparison, seeded-fault bisection (the injected divergence
#     must bisect to the exact retired instruction), minimization, and the
#     farm's determinism contract (same seeds + farm seed => byte-identical
#     manifests across parallel runs).
#
#  2. A clean time-boxed farm over the pinned corpus: `marshal verify-farm`
#     on fixed seeds with a fixed farm seed must find ZERO divergences —
#     this is the actual correctness gate on the simulator tiers. The
#     cycle-exact spot-check rides along (-rtl-every).
#
#  3. The seeded-fault self-test: the same farm with an injected register
#     corruption must exit nonzero, catch the divergence on EVERY workload,
#     bisect each to exactly the injected retirement, dedup the whole run
#     to one signature, and leave a minimized repro in the CAS. This proves
#     the farm can actually catch a bug, so a green layer 2 means
#     something.
#
# Time box: tune -seeds/-rounds here, not in CI yaml; FARM_TIMEOUT guards
# against a hung simulator rather than pacing the run.
set -e
cd "$(dirname "$0")/.."

FARM_TIMEOUT="${FARM_TIMEOUT:-5m}"

echo "== verify suite (-race, -count=1)"
go test -race -count=1 ./internal/verify/

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/marshal" ./cmd/marshal

echo "== clean farm over pinned corpus (must find zero divergences)"
"$TMP/marshal" -workdir "$TMP/clean" verify-farm \
    -seeds 1-8 -rounds 1 -farm-seed 42 -rtl-every 4 -timeout "$FARM_TIMEOUT"

echo "== seeded-fault self-test (injected bug must be caught end to end)"
# Three copies of one seed: the same workload, so the same corrupted
# instruction — the whole run must dedup to ONE signature. Instruction 500
# is safely inside every generated workload (they retire thousands).
FAULT_INSTR=500
STATUS=0
"$TMP/marshal" -workdir "$TMP/fault" verify-farm \
    -seeds 7,7,7 -rounds 0 -farm-seed 1 -timeout "$FARM_TIMEOUT" \
    -inject-fault "fast:$FAULT_INSTR:x27:0x1" >"$TMP/fault.out" || STATUS=$?
cat "$TMP/fault.out"
if [ "$STATUS" != 1 ]; then
    echo "verify_gate.sh: FAIL (self-test exit $STATUS, want 1: injected fault not caught)"
    exit 1
fi
MANIFEST="$TMP/fault/verify/farm.jsonl"
DIVERGED="$(grep -c '"status":"diverged"' "$MANIFEST" || true)"
if [ "$DIVERGED" != 3 ]; then
    echo "verify_gate.sh: FAIL (want the fault caught on all 3 workloads, got $DIVERGED)"
    exit 1
fi
NEWSIGS="$(grep -c '"new_sig":true' "$MANIFEST" || true)"
if [ "$NEWSIGS" != 1 ]; then
    echo "verify_gate.sh: FAIL (want 1 unique signature after dedup, got $NEWSIGS)"
    exit 1
fi
if ! grep -q "\"instr\":$FAULT_INSTR" "$MANIFEST"; then
    echo "verify_gate.sh: FAIL (bisection did not land on injected instruction $FAULT_INSTR)"
    exit 1
fi
REPRO="$(grep -o '"repro":"[0-9a-f]*"' "$MANIFEST" | head -1 | cut -d'"' -f4)"
if [ -z "$REPRO" ] || [ -z "$(find "$TMP/fault/cache/blobs" -name "$REPRO" -size +0)" ]; then
    echo "verify_gate.sh: FAIL (minimized repro $REPRO missing from the CAS)"
    exit 1
fi

echo "verify_gate.sh: PASS"
