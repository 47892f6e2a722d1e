// Package remote distributes a launch across a fleet of worker daemons —
// the cluster mode behind FireMarshal's headline result of turning a
// two-week SPEC sweep into two days (§IV-B), extended past one machine.
//
// Topology: each worker (`marshal worker serve`) is an HTTP server
// executing jobs through the existing launcher machinery; the coordinator
// (`marshal launch -workers a:1,b:2`) is a transient client that places
// every job, leases each worker its share in one request (POST /v1/jobs: an
// array of specs in, one status per spec out; queued leases start in array
// order), keeps one event poll outstanding per worker (GET
// /v1/events?since=N&wait=<ms>, answered on the next event or after Poll —
// the answer is the heartbeat, so Poll bounds silence, not event latency),
// and folds every event into its own journal — the JSONL journal/manifest
// on the coordinator stays the single source of truth. A finished job's
// files land in its run directory off the coordinator loop while the rest
// still run; the job is journaled done only once they are there.
// Artifacts never travel over this protocol: the coordinator publishes
// boot binaries and disk images to the shared CAS remote-cache server and
// job specs carry only digests; workers fetch what they miss and publish
// consoles, outputs, and checkpoints the same way. A configuration travels
// as the type that declares it: an rtl job carries its rtlsim.Config and a
// farm shard its verify.Params, so no field can be dropped in a copy. A
// worker of another version fails such a job loudly — an older rtl spec
// decodes to zero cache geometry, which Execute rejects as a permanent
// hardware-configuration error, and an older verify spec's fault string
// does not decode, so its lease is answered 400 — never on a wrong
// configuration.
//
// Fault model: a worker that stops answering polls for LeaseTTL forfeits
// its leases. Each forfeited job is re-leased to a live worker together
// with the latest checkpoint pointer the dead worker managed to announce,
// so the job restores bit-identically (cycles, stats, console) instead of
// restarting — exactly the single-machine `-resume` guarantee, stretched
// across machines. Idle workers steal still-queued jobs from loaded ones;
// the queued-only constraint is enforced by the owning worker, so a steal
// can never duplicate a running simulation.
//
// The package also owns the one way to execute a job, which a worker and a
// local run share: Execute (exec.go) is the kernel every attempt runs
// through — on a worker via ArtifactRunner, in-process via Drive — and
// Drive (drive.go) is the launch driver behind `marshal launch` and
// `firesim`: journal, resume, local pool or fleet, manifest.
package remote

import (
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/launcher"
	"firemarshal/internal/sim/rtlsim"
	"firemarshal/internal/verify"
)

// JobSpec is one leased job, self-contained modulo CAS digests: a worker
// needs nothing but the shared remote cache to execute it. POST /v1/jobs
// carries an array of them.
type JobSpec struct {
	// Name is the job's manifest name, unique within the run.
	Name string `json:"name"`
	// Sim selects the simulator: "qemu" or "spike" (functional), or
	// "rtl" (cycle-exact; RTL carries the hardware configuration).
	Sim string `json:"sim"`
	// Bin is the CAS digest of the boot binary.
	Bin string `json:"bin"`
	// Img is the CAS digest of the disk image ("" for no-disk/bare boots).
	Img string `json:"img,omitempty"`
	// Outputs lists guest paths to extract from the final filesystem.
	Outputs []string `json:"outputs,omitempty"`
	// RTL is the cycle-exact hardware configuration (Sim == "rtl"), the
	// same rtlsim.Config a local run simulates; its runtime handles (stop
	// channel, checkpoint runtime, metrics registry) are the executing
	// worker's own and never travel.
	RTL *rtlsim.Config `json:"rtl,omitempty"`

	// Timeout bounds each attempt; Retries re-attempts transient failures
	// (total attempts = Retries+1). Both run worker-side, through the
	// worker's launcher pool.
	Timeout time.Duration `json:"timeout,omitempty"`
	Retries int           `json:"retries,omitempty"`

	// Prior is the attempt count already consumed by earlier leases or an
	// interrupted earlier run; start events and the final record count
	// attempts on top of it, so manifests show totals across handoffs.
	Prior int `json:"prior,omitempty"`
	// Resumed marks the job as carried across an interruption.
	Resumed bool `json:"resumed,omitempty"`
	// Ckpt, when set, names the checkpoint to restore before executing:
	// the worker fetches its blobs from the remote cache and resumes
	// mid-exec, bit-identically to the machine that snapshotted it.
	Ckpt *checkpoint.Pointer `json:"ckpt,omitempty"`
	// CkptEvery, when nonzero, snapshots machine state every N retired
	// instructions and replicates each snapshot to the remote cache, so
	// this worker dying forfeits at most N instructions of progress.
	CkptEvery uint64 `json:"ckpt_every,omitempty"`

	// Verify, when set, makes this job one verification-farm shard (Sim
	// is "verify"; Bin/Img are unused). The spec carries only the shard's
	// verify.Params: farm workloads regenerate deterministically from
	// seeds, so the artifact-purity property — a worker needs nothing but
	// the shared cache — holds trivially. The shard's JSONL manifest is
	// published to the cache and announced as the "farm.jsonl" output.
	Verify *verify.Params `json:"verify,omitempty"`
}

// Event kinds streamed from worker to coordinator.
const (
	// EventStart: a job attempt began. Attempt is absolute (Prior
	// included), matching what the journal's start records carry.
	EventStart = "start"
	// EventCheckpoint: a snapshot was taken AND fully replicated to the
	// remote cache; Ckpt names it. The coordinator persists the pointer,
	// making it the job's restore point if this worker dies.
	EventCheckpoint = "checkpoint"
	// EventDone: the job reached a terminal status. Record is the exact
	// manifest record; Console and Outputs name the transcript and
	// extracted output blobs in the remote cache.
	EventDone = "done"
)

// Event is one entry of a worker's event log, streamed to the coordinator
// via GET /v1/events?since=N[&wait=ms]. Seq is worker-global and monotonic,
// so a single cursor per worker resumes the stream exactly.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	Job  string `json:"job"`
	// Attempt is set on start events (absolute, Prior included).
	Attempt int `json:"attempt,omitempty"`
	// Ckpt is set on checkpoint events.
	Ckpt *checkpoint.Pointer `json:"ckpt,omitempty"`
	// Record is set on done events: the job's verbatim manifest record.
	Record *launcher.Record `json:"record,omitempty"`
	// Console is the CAS digest of the job's full console transcript
	// (done events of jobs that produced output).
	Console string `json:"console,omitempty"`
	// Outputs maps run-directory-relative paths to CAS digests of the
	// job's extracted output files (done events).
	Outputs map[string]string `json:"outputs,omitempty"`
	// Stats carries the cycle-exact timing statistics (rtl jobs).
	Stats *rtlsim.Stats `json:"stats,omitempty"`
}

// JobState classifies a job on a worker, reported by GET /v1/status.
type JobState string

const (
	// JobQueued: leased but not yet started — the stealable window.
	JobQueued JobState = "queued"
	// JobRunning: executing (or retrying) on a simulation slot.
	JobRunning JobState = "running"
	// JobDone: terminal; its done event is in the log.
	JobDone JobState = "done"
)

// WorkerStatus is GET /v1/status: the registration probe, the heartbeat
// payload, and the scheduler's load signal all in one.
type WorkerStatus struct {
	// Slots is the worker's simulation concurrency.
	Slots int `json:"slots"`
	// Jobs maps each known job to its state.
	Jobs map[string]JobState `json:"jobs,omitempty"`
	// Seq is the current end of the event log (next event's Seq).
	Seq int `json:"seq"`
}

// Outstanding counts jobs not yet terminal — the scheduler's load metric.
func (s *WorkerStatus) Outstanding() int {
	n := 0
	for _, st := range s.Jobs {
		if st != JobDone {
			n++
		}
	}
	return n
}
