#!/bin/sh
# nightly_farm.sh — the long verification-farm session behind the nightly
# workflow. Where verify_gate.sh is a minutes-scale PR gate, this run
# covers a much wider pinned corpus with more mutation rounds and denser
# cycle-exact spot-checks, then collects everything a human needs to act
# on a red night into one artifact directory:
#
#   farm.jsonl    the full JSONL manifest (entries + summary)
#   coverage.txt  the farm's stdout: coverage report + per-signature hits
#   repros/       the minimized repro workload for each unique signature
#
# Exit status is the farm's own: 1 when any tier divergence was found, so
# the nightly goes red while the artifacts still upload (if: always()).
set -e
cd "$(dirname "$0")/.."

OUT_DIR="${FARM_ARTIFACTS:-farm-artifacts}"
FARM_TIMEOUT="${FARM_TIMEOUT:-30m}"
FARM_SEEDS="${FARM_SEEDS:-1-32}"
FARM_ROUNDS="${FARM_ROUNDS:-3}"

mkdir -p "$OUT_DIR"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
go build -o "$WORK/marshal" ./cmd/marshal

STATUS=0
"$WORK/marshal" -workdir "$WORK/farm" verify-farm \
    -seeds "$FARM_SEEDS" -rounds "$FARM_ROUNDS" -farm-seed 42 -rtl-every 4 \
    -timeout "$FARM_TIMEOUT" -out "$OUT_DIR/farm.jsonl" \
    | tee "$OUT_DIR/coverage.txt" || STATUS=$?

# Pull each signature's minimized repro out of the farm's CAS by the
# digests the manifest records, so the artifact is self-contained.
mkdir -p "$OUT_DIR/repros"
grep -o '"sig":"[0-9a-f]*","new_sig":true,"repro":"[0-9a-f]*"' "$OUT_DIR/farm.jsonl" 2>/dev/null |
    while IFS= read -r hit; do
        SIG="$(echo "$hit" | cut -d'"' -f4)"
        REPRO="$(echo "$hit" | cut -d'"' -f12)"
        BLOB="$(find "$WORK/farm/cache/blobs" -name "$REPRO" -size +0)"
        [ -n "$BLOB" ] && cp "$BLOB" "$OUT_DIR/repros/$SIG.s"
    done

echo "nightly_farm.sh: artifacts in $OUT_DIR (exit $STATUS)"
exit "$STATUS"
