#!/bin/sh
# check.sh — the full pre-merge gate: formatting, vet, build, and the
# complete test suite under the race detector with shuffled test order
# (the dag engine and the launcher run worker goroutines against shared
# state; -race keeps that honest, -shuffle flushes out order coupling).
# Ends with a per-package timing summary, slowest first, so CI time sinks
# are visible instead of buried in the log.
set -e
cd "$(dirname "$0")/.."

echo "== gofmt"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "check.sh: gofmt needed on:" >&2
    printf '%s\n' "$UNFORMATTED" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== inlining of the shared RV64IM rules and the soft-TLB probes (internal/sim)"
# All three executors call the value rules in semantics.go once per retired
# instruction, so one that stops inlining silently becomes a call each. The
# four store helpers are calls by design (their TLB-hit test is what
# inlines), so they are the only functions of that file allowed here.
# memory.go's lookup and storeHit, the soft-TLB hit tests every guest load
# and store starts with, must be reported inlinable for the same reason.
REPORT="$(go build -gcflags=-m=2 ./internal/sim 2>&1 | grep -E '(semantics|memory)\.go:.*inline' || true)"
for probe in lookup storeHit; do
    case "$REPORT" in
    *"can inline (*Memory).$probe "*) ;;
    *)
        echo "check.sh: memory.go's (*Memory).$probe no longer inlines into the executors" >&2
        exit 1
        ;;
    esac
done
INLINING="$(printf '%s\n' "$REPORT" | grep 'semantics\.go:' || true)"
case "$INLINING" in
*"can inline slt "*) ;;
*)
    echo "check.sh: the compiler's inlining report does not mention semantics.go's slt" >&2
    exit 1
    ;;
esac
NOINLINE="$(printf '%s\n' "$INLINING" | grep 'cannot inline' |
    grep -v -E 'cannot inline \(\*Memory\)\.store(8|16|32|64):' || true)"
if [ -n "$NOINLINE" ]; then
    echo "check.sh: shared instruction rules no longer inline:" >&2
    printf '%s\n' "$NOINLINE" >&2
    exit 1
fi

echo "== go test -race -shuffle=on"
# POSIX sh has no pipefail: capture output to a file so the exit status
# of `go test` survives the timing post-processing below.
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
STATUS=0
go test -race -shuffle=on ./... >"$OUT" 2>&1 || STATUS=$?
cat "$OUT"

echo "== slowest packages"
awk '$1 == "ok" && $3 ~ /^[0-9]/ { printf "  %8.2fs  %s\n", $3 + 0, $2 }' "$OUT" |
    sort -rn | head -10

if [ "$STATUS" != 0 ]; then
    echo "check.sh: FAIL (go test exit $STATUS)"
    exit "$STATUS"
fi

# Crash-recovery spot check: the fault-injection suite (kill a run
# mid-flight, resume, demand bit-identical cycles) re-runs un-cached so a
# flaky pass can't hide behind Go's test result cache. The full
# resume-determinism gate, including journal fuzzing, is scripts/resume_gate.sh.
echo "== crash-recovery resume determinism (-count=1)"
go test -race -count=1 -run 'CrashResume' \
    ./internal/checkpoint/ ./internal/sim/rtlsim/ ./internal/core/ ./internal/fsrun/

# Opt-in gates: each mirrors a CI job that always runs it, but costs too
# much (or needs loopback ports) to force on every local check. The
# summary at the end lists which ran and which were skipped, with the
# CHECK_* switch that would enable each — so a local PASS can't be
# mistaken for full CI coverage.
GATES_RAN=""
GATES_SKIPPED=""

# Distributed-launch gate: it binds loopback ports and spawns daemons,
# which not every dev sandbox allows; CI's `distributed` job always runs it.
if [ -n "$CHECK_DISTRIBUTED" ]; then
    echo "== distributed-launch gate (worker fleet fault injection + smoke)"
    scripts/distributed_gate.sh
    GATES_RAN="$GATES_RAN distributed"
else
    GATES_SKIPPED="$GATES_SKIPPED distributed(CHECK_DISTRIBUTED=1)"
fi

# Trace-compiler gate: it adds a second multi-second benchmark run; CI's
# `bench` job always runs it.
if [ -n "$CHECK_TRACED" ]; then
    echo "== trace-compiler throughput gate (loop-heavy superblock tier)"
    scripts/traced_gate.sh
    GATES_RAN="$GATES_RAN traced"
else
    GATES_SKIPPED="$GATES_SKIPPED traced(CHECK_TRACED=1)"
fi

# Chaos gate: a seed-driven fault schedule against a loopback fleet (two
# full fleet runs, compared bit-for-bit); CI's `chaos` job always runs it.
if [ -n "$CHECK_CHAOS" ]; then
    echo "== chaos gate (deterministic fault injection + self-healing)"
    scripts/chaos_gate.sh
    GATES_RAN="$GATES_RAN chaos"
else
    GATES_SKIPPED="$GATES_SKIPPED chaos(CHECK_CHAOS=1)"
fi

# Cache-service gate: the saturation benchmark (another multi-second
# bench run) plus the torn-upload-retry, GC-race and two-process action-log
# smokes; CI's `cache` job always runs it.
if [ -n "$CHECK_CACHE" ]; then
    echo "== cache-service gate (saturation bench + torn-upload/GC-race/action-log smokes)"
    scripts/cache_gate.sh
    GATES_RAN="$GATES_RAN cache"
else
    GATES_SKIPPED="$GATES_SKIPPED cache(CHECK_CACHE=1)"
fi

# Verification-farm gate: a time-boxed differential farm plus the
# seeded-fault self-test; CI's `verify-farm` job always runs it.
if [ -n "$CHECK_VERIFY" ]; then
    echo "== verification-farm gate (clean farm + seeded-fault self-test)"
    scripts/verify_gate.sh
    GATES_RAN="$GATES_RAN verify"
else
    GATES_SKIPPED="$GATES_SKIPPED verify(CHECK_VERIFY=1)"
fi

# Metrics-overhead gate: re-run the hot-loop benchmark with obs counter
# shards attached (BENCH_METRICS=1) and hold it to the same BENCH_sim.json
# baseline and 30% rule as the plain bench. Instrumentation that slows the
# interpreter measurably fails here, not in a later profiling session.
echo "== metrics-overhead gate (BenchmarkSimMIPS with metrics enabled)"
BENCH_METRICS=1 scripts/bench.sh
GATES_RAN="$GATES_RAN metrics-overhead"

echo "== gate summary"
echo "  ran:    $GATES_RAN"
if [ -n "$GATES_SKIPPED" ]; then
    echo "  skipped:$GATES_SKIPPED  (CI runs these; set the listed variable to include one locally)"
fi

echo "check.sh: PASS"
