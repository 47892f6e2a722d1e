#!/bin/sh
# distributed_gate.sh — the worker-fleet gate. Three layers:
#
#  1. The in-process fault-injection suite under the race detector:
#     coordinator/worker protocol tests, lease expiry and work stealing,
#     and the end-to-end kills — a worker shot mid-job must forfeit to a
#     surviving worker that restores from the handed-off checkpoint and
#     finishes with cycles, stats, and console bytes bit-identical to an
#     uninterrupted single-host run (functional AND cycle-exact paths).
#     MARSHAL_DIST_SPEEDUP=1 arms the >2x @ 4-worker speedup assertion,
#     which self-skips on hosts without enough cores.
#
#     The event-driven protocol's own tests (long-poll, array lease, slot
#     order, landing off the loop, poller/lander shutdown) then run three
#     times over: the driver's request and landing goroutines are the
#     coordinator's only ones, and a race there shows up as a rare
#     interleaving.
#
#  2. A short fuzz of the seeded fleet harness: random fault scripts and
#     delivery orders, each of which must replay byte for byte and end
#     every job as a clean run does.
#
#  3. A loopback smoke over real binaries: `marshal cache serve` plus
#     three `marshal worker serve` daemons on 127.0.0.1, one
#     `marshal launch -workers` that leases a 3-job workgen workload
#     across them and materializes every uartlog on the coordinator; the
#     same workload installed (`marshal install`) and simulated
#     cycle-exactly by `firesim -workers` on the same daemons, as
#     installed: an installed multi-job workload is pure machine state;
#     and one `marshal verify-farm -workers` that shards six seeds across
#     the same daemons and lands every shard's manifest on the coordinator.
set -e
cd "$(dirname "$0")/.."

echo "== distributed fault-injection suite (-race, -count=1)"
MARSHAL_DIST_SPEEDUP=1 go test -race -count=1 \
    -run 'Distributed|Worker|Coordinator|Transfer|Fleet' \
    ./internal/launcher/remote/ ./internal/core/ ./internal/fsrun/

echo "== event-driven fleet protocol (-race, -count=3)"
go test -race -count=3 \
    -run 'LongPoll|WaitForPoll|IgnoresWait|BatchedLease|RequestOrder|Placement|Landing' \
    ./internal/launcher/remote/

echo "== fuzz the fleet schedule (short CI smoke)"
go test -run '^$' -fuzz '^FuzzFleetSchedule$' -fuzztime 10s ./internal/launcher/remote/

echo "== loopback 3-worker fleet smoke (real binaries over HTTP)"
TMP="$(mktemp -d)"
PIDS=""
cleanup() {
    # shellcheck disable=SC2086
    [ -n "$PIDS" ] && kill $PIDS 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP" ./cmd/marshal ./cmd/workgen ./cmd/firesim

CACHE=127.0.0.1:18414
CACHE_URL="http://$CACHE"
WORKERS="127.0.0.1:18421,127.0.0.1:18422,127.0.0.1:18423"

"$TMP/workgen" -jobs 3 -out "$TMP/wl" >/dev/null

# The coordinator's workdir backs the shared cache server, so artifacts it
# publishes are immediately servable to the fleet.
"$TMP/marshal" -workdir "$TMP/coord" cache serve -addr "$CACHE" &
PIDS="$PIDS $!"
for port in 18421 18422 18423; do
    "$TMP/marshal" -workdir "$TMP/worker$port" -remote-cache "$CACHE_URL" \
        worker serve -addr "127.0.0.1:$port" &
    PIDS="$PIDS $!"
done

# The daemons bind asynchronously; retry the launch until they answer.
STATUS=1
for attempt in 1 2 3 4 5; do
    if "$TMP/marshal" -workdir "$TMP/coord" -workload-dirs "$TMP/wl" \
        -remote-cache "$CACHE_URL" launch -workers "$WORKERS" parjobs; then
        STATUS=0
        break
    fi
    echo "distributed_gate.sh: fleet not up yet (attempt $attempt), retrying"
    sleep 1
done
if [ "$STATUS" != 0 ]; then
    echo "distributed_gate.sh: FAIL (fleet launch never succeeded)"
    exit 1
fi

for job in job00 job01 job02; do
    LOG="$TMP/coord/runs/parjobs-$job/uartlog"
    if [ ! -s "$LOG" ]; then
        echo "distributed_gate.sh: FAIL (missing or empty $LOG)"
        exit 1
    fi
done

echo "== loopback fleet firesim smoke (the installed workload over the same daemons)"
"$TMP/marshal" -workdir "$TMP/coord" -workload-dirs "$TMP/wl" install parjobs >/dev/null
if ! "$TMP/firesim" -config "$TMP/coord/firesim/parjobs" -output "$TMP/sim" \
    -workers "$WORKERS" -remote-cache "$CACHE_URL"; then
    echo "distributed_gate.sh: FAIL (fleet firesim run exited non-zero)"
    exit 1
fi
for job in job00 job01 job02; do
    LOG="$TMP/sim/parjobs-$job/uartlog"
    if [ ! -s "$LOG" ]; then
        echo "distributed_gate.sh: FAIL (missing or empty $LOG)"
        exit 1
    fi
done

echo "== loopback fleet verify-farm smoke (3 shards over the same daemons)"
if ! "$TMP/marshal" -workdir "$TMP/coord" -remote-cache "$CACHE_URL" \
    verify-farm -workers "$WORKERS" -seeds 1-6 -rounds 0 >"$TMP/farm.out" 2>&1; then
    cat "$TMP/farm.out"
    echo "distributed_gate.sh: FAIL (fleet verify-farm exited non-zero)"
    exit 1
fi
cat "$TMP/farm.out"
if ! grep -q '^verify-farm: 6 entries, 0 divergences' "$TMP/farm.out" ||
    ! grep -q '^PASS' "$TMP/farm.out"; then
    echo "distributed_gate.sh: FAIL (fleet verify-farm did not check 6 clean entries)"
    exit 1
fi
for shard in 0 1 2; do
    MANIFEST="$TMP/coord/verify/shards/verify-shard-$shard/farm.jsonl"
    if [ ! -s "$MANIFEST" ]; then
        echo "distributed_gate.sh: FAIL (missing or empty $MANIFEST)"
        exit 1
    fi
done

echo "distributed_gate.sh: PASS"
