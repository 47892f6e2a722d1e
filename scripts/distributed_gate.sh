#!/bin/sh
# distributed_gate.sh — the worker-fleet gate. Two layers:
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
#     times over: the pollers and landers are the coordinator's only
#     goroutines, and a race there shows up as a rare interleaving.
#
#  2. A loopback smoke over real binaries: `marshal cache serve` plus
#     three `marshal worker serve` daemons on 127.0.0.1, and one
#     `marshal launch -workers` that leases a 3-job workgen workload
#     across them and materializes every uartlog on the coordinator.
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

echo "== loopback 3-worker fleet smoke (real binaries over HTTP)"
TMP="$(mktemp -d)"
PIDS=""
cleanup() {
    # shellcheck disable=SC2086
    [ -n "$PIDS" ] && kill $PIDS 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP" ./cmd/marshal ./cmd/workgen

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

echo "distributed_gate.sh: PASS"
