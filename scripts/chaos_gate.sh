#!/bin/sh
# chaos_gate.sh — the fault-injection/self-healing gate: the robustness
# suite under the race detector. It runs the deterministic fault schedule
# itself (a pure function of seed/site/index: same seed, same schedule;
# another seed, another), breaker half-open recovery on a fake clock,
# concurrent readers self-healing one corrupt blob, 429/Retry-After
# backoff in both HTTP clients, per-client rate limiting, coordinator
# quarantine/revival, a lease expiry racing a checkpoint publish, the
# seeded fleet harness's determinism property, and
# TestChaosRunSurvivesFaultSchedule: a 3-worker loopback fleet under the
# seed-1 schedule with planted corrupt blobs, a flaky worker and a slow
# straggler must end every job bit-identical to a clean local run, heal a
# blob, quarantine a worker and steal a lease.
set -e
cd "$(dirname "$0")/.."

go test -race -count=1 \
    -run 'Chaos|Schedule|Transport|StoreFaults|PlantCorrupt|Breaker|SelfHeal|429|Throttle|TokenBucket|MaxInFlight|Quarantine|Revive|LeaseExpiry|RateLimit|FleetReplaysFromSeed|Fingerprint' \
    ./internal/chaos/ ./internal/ratelimit/ ./internal/cas/... ./internal/launcher/remote/ ./internal/core/
