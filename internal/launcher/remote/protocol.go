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
// farm shard its verify.Params, so no field can be dropped in a copy. One
// protocol version, in GET /v1/status, is checked once, at registration: a
// worker of another version is never leased to (ErrProtocolVersion). Every
// offer of a job carries a fresh lease id, unique across runs, that the
// worker echoes on each event of that lease; the coordinator honours only
// events of a job's current lease, whatever name they carry. A worker's
// event log is numbered from a random base for each process, and a poll
// cursor outside [base, end] is answered 410: the worker restarted. It is
// registered again at the next poll and the jobs it held are re-leased.
//
// Fault model: the event log and the steal answer are the whole truth about
// which worker holds a lease; nothing is re-derived from a status poll. A
// worker silent for 100 heartbeats (100 × Poll: 10 s at the default Poll)
// forfeits its leases, and a restarted one forfeits them at its next poll.
// Each forfeited job is re-leased to a live worker together with the latest
// checkpoint pointer the dead worker managed to announce, so the job
// restores bit-identically (cycles, stats, console) instead of restarting —
// exactly the single-machine `-resume` guarantee, stretched across
// machines. Idle workers steal still-queued jobs from loaded ones; the
// queued-only constraint is enforced by the owning worker, so a steal can
// never duplicate a running simulation. A steal names the lease it takes
// back and is idempotent: 404 ("lease not held here") reads as given back,
// so a steal whose answer was lost is retried like every request, then
// asked again once per Poll until it is answered or its worker is given up.
// A job has one owner at a time: it runs twice at once only when its lease
// expires on a worker that is slow rather than dead. A lease a coordinator
// left running is adopted by a later lease of its name (409) only for the
// same work, and takes the adopter's lease id; a name held for other work is
// answered 423, and the job waits for it or goes to another worker. Draining
// a fleet run (the first Ctrl-C) takes back every still-queued lease the
// same way and reports those jobs skipped, as the local pool does; running
// jobs finish.
//
// The package also owns the one way to execute a job, which a worker and a
// local run share: Execute (exec.go) is the kernel every attempt runs
// through — on a worker via ArtifactRunner, in-process via Drive — and
// Drive (drive.go) is the launch driver behind `marshal launch`, `firesim`
// and `marshal verify-farm -workers`: journal, resume, local pool or fleet,
// manifest. A verification-farm shard (verify.go) is an ordinary fleet job
// whose result is its farm manifest and repros, published and landed as
// its outputs; Drive is the only caller of Launch outside tests.
package remote

import (
	"errors"
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
	// (total attempts = Retries+1). The lease is the policy: the worker runs
	// exactly these through its launcher pool — 0 means no timeout and no
	// retry — so a job is attempted as it would be in the local pool.
	Timeout time.Duration `json:"timeout,omitempty"`
	Retries int           `json:"retries,omitempty"`

	// Lease identifies this offer of the job; its events echo it.
	Lease uint64 `json:"lease,omitempty"`
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
	// the shared cache — holds trivially. The shard's JSONL manifest and
	// repros are its outputs (VerifyManifestOutput, ReproOutput+digest).
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
// via GET /v1/events?since=N[&wait=ms]. Seq is worker-global and monotonic
// from a random base per worker process, so a single cursor per worker
// resumes the stream exactly and is never valid at a restarted process.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	Job  string `json:"job"`
	// Lease is the id of the lease the event belongs to (JobSpec.Lease).
	Lease uint64 `json:"lease,omitempty"`
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

// protocolVersion is the fleet protocol's version, reported by a worker's
// status and checked once, when the coordinator registers the worker.
// Version 2 numbers each process's log from a random base and steals by
// lease: a version-1 worker's restart can go unseen.
const protocolVersion = 2

// ErrProtocolVersion reports a worker that speaks another protocol version.
var ErrProtocolVersion = errors.New("remote: worker speaks another protocol version")

// WorkerStatus is GET /v1/status, the registration probe.
type WorkerStatus struct {
	// Protocol is the worker's protocolVersion.
	Protocol int `json:"protocol"`
	// Slots is the worker's simulation concurrency.
	Slots int `json:"slots"`
	// Seq is the current end of the event log (next event's Seq).
	Seq int `json:"seq"`
}
