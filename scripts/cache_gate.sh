#!/bin/sh
# cache_gate.sh — cache-service throughput + resilience gate. Runs the
# concurrent GET/PUT saturation benchmark against a live cache server,
# records MB/s per traffic pattern in BENCH_cache.json, and compares
# against the checked-in baseline so streaming-path regressions (a return
# to whole-body buffering, a lock on the read path) fail loudly. Then it
# smoke-tests the resilience properties the benchmark can't see: an upload
# torn mid-body must leave nothing in the store and the caller's whole-blob
# retry must then land it bit-identically (and an old client's Content-Range
# chunk must be refused, not stored short), a GC sweeping under concurrent
# publish traffic must lose nothing, the action log shared by two
# appending processes must lose and tear nothing, with or without a
# compaction racing them, and an older store opened by many handles at once
# must be set aside once, with no handle left on a moved log — all under
# the race detector.
#
# Usage:
#   scripts/cache_gate.sh             run + compare against BENCH_cache.json
#   scripts/cache_gate.sh -update     run + rewrite BENCH_cache.json baseline
#
# The comparison tolerates noise: a pattern fails only if it drops below
# THRESHOLD (default 0.70) of its recorded baseline. Shared CI hosts are
# jittery; a 30% drop is a real regression, not scheduling noise.
set -e
cd "$(dirname "$0")/.."

BASELINE=BENCH_cache.json
THRESHOLD="${THRESHOLD:-0.70}"
UPDATE=0
[ "$1" = "-update" ] && UPDATE=1

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

echo "== go test -bench BenchmarkCacheSaturation ./internal/cas/remote"
go test -run '^$' -bench 'BenchmarkCacheSaturation' -benchmem ./internal/cas/remote/ | tee "$OUT"

# Parse "BenchmarkCacheSaturation/<pattern>-N  iters  ns/op  X MB/s ..."
# into JSON. awk keeps the dependency surface at POSIX tools only.
KEYS="get put mixed"
CURRENT="$(awk '
    /^BenchmarkCacheSaturation\// {
        split($1, parts, "/"); sub(/-[0-9]+$/, "", parts[2])
        for (i = 2; i <= NF; i++) if ($(i) == "MB/s") mbs[parts[2]] = $(i-1)
    }
    END {
        printf "{\n"
        printf "  \"get\": %s,\n", mbs["get"] + 0
        printf "  \"put\": %s,\n", mbs["put"] + 0
        printf "  \"mixed\": %s\n", mbs["mixed"] + 0
        printf "}\n"
    }' "$OUT")"

if [ "$UPDATE" = 1 ] || [ ! -f "$BASELINE" ]; then
    printf '%s\n' "$CURRENT" > "$BASELINE"
    echo "== wrote baseline $BASELINE"
    printf '%s\n' "$CURRENT"
else
    # Compare per key. A key absent from the baseline (a pattern added
    # after it was recorded) is not a regression: report it, adopt the
    # current number, and merge without clobbering the recorded keys.
    echo "== comparing against $BASELINE (threshold ${THRESHOLD}x)"
    FAIL=0
    RECORD=0
    MERGED=""
    sep=""
    for key in $KEYS; do
        base="$(awk -F'[:,]' -v k="\"$key\"" '$1 ~ k {print $2+0}' "$BASELINE")"
        cur="$(printf '%s\n' "$CURRENT" | awk -F'[:,]' -v k="\"$key\"" '$1 ~ k {print $2+0}')"
        if [ -z "$base" ]; then
            printf '  %-8s no baseline, recording %s\n' "$key" "$cur"
            RECORD=1
            val="$cur"
        else
            ok="$(awk -v c="$cur" -v b="$base" -v t="$THRESHOLD" 'BEGIN {print (c >= b*t) ? 1 : 0}')"
            status=ok
            [ "$ok" = 1 ] || { status="REGRESSION"; FAIL=1; }
            printf '  %-8s baseline=%-10s current=%-10s MB/s %s\n' "$key" "$base" "$cur" "$status"
            val="$base"
        fi
        MERGED="${MERGED}${sep}  \"${key}\": ${val}"
        sep=",\n"
    done

    if [ "$FAIL" = 1 ]; then
        echo "cache_gate.sh: cache throughput regression detected (rerun with -update to accept)"
        exit 1
    fi
    if [ "$RECORD" = 1 ]; then
        printf '{\n%b\n}\n' "$MERGED" > "$BASELINE"
        echo "== recorded new pattern(s) into $BASELINE"
    fi
fi

# Resilience smokes, all under -race: the kill-mid-upload retry (a torn
# PUT leaves no trace, the whole-blob retry lands digest-verified bytes),
# the GC-vs-publish race (no live/pinned/in-flight entry may be lost to a
# concurrent sweep), the action log under two appending processes (every
# record found, none torn, none lost to a racing compaction) and an older
# layout set aside under handles and processes opening it at once.
echo "== kill-mid-upload retry smoke (-race)"
go test -race -count=1 -run 'TestTornPutLeavesNothingThenRetrySucceeds|TestContentRangePutRefused' ./internal/cas/remote/
echo "== GC-vs-publish race smoke (-race)"
go test -race -count=1 -run 'TestGCUnderConcurrentTraffic|TestGCSweepSparesConcurrentWrites|TestGCHoldProtectsPublishWindow|TestActionLogSharedByProcesses|TestOlderLayoutReadsAsEmpty|TestCompactionLosesNoConcurrentAppend' ./internal/cas/

echo "cache_gate.sh: PASS"
