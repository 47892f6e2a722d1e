// Package core implements the FireMarshal workload lifecycle (§II): the
// build pipeline that turns a workload specification into a boot binary and
// disk image (Fig. 3), the launch command that runs those artifacts in
// functional simulation, the test command that compares run outputs against
// references, and the install command that emits cycle-exact simulator
// configurations. The exact same artifact files flow through every phase —
// "the workload outputs are not modified in any way between the launch and
// install commands" (§III-E).
package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"firemarshal/internal/boards"
	"firemarshal/internal/cas"
	"firemarshal/internal/cas/remote"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/dag"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
	"firemarshal/internal/spec"
)

// Marshal is the workload manager rooted at a working directory.
type Marshal struct {
	// Loader resolves workload names.
	Loader *spec.Loader
	// WorkDir holds build state and artifacts.
	WorkDir string
	// Log receives progress messages.
	Log io.Writer

	// CacheDir overrides the artifact-cache location. Empty means
	// <WorkDir>/cache; point several checkouts at one directory to share
	// a build cache between them.
	CacheDir string
	// RemoteCache is the base URL of a `marshal cache serve` server
	// ("" disables the remote tier). An unreachable remote degrades the
	// build to local-only caching, never fails it.
	RemoteCache string
	// remoteTransport, when set, wraps the remote-cache client's HTTP
	// transport (tests inject faults through it).
	remoteTransport http.RoundTripper

	// LastBuildStats reports what the dependency tracker did on the most
	// recent Build (for `marshal status` and the rebuild benchmarks).
	LastBuildStats BuildStats

	// LastLaunch reports the most recent Launch's per-job scheduling
	// summary — `marshal launch` renders it as the summary table, and the
	// Fig. 6 speedup experiment reads its wall-clock numbers.
	// LastManifest is where that launch wrote its JSONL run manifest.
	LastLaunch   *launcher.Summary
	LastManifest string

	// Obs is the metrics registry every layer of a run reports into
	// (cas_*, dag_*, launcher_*, checkpoint_*, sim_*). A nil registry
	// resolves to the process-wide obs.Default, so instrumentation stays
	// on even when no one asked for a snapshot.
	Obs *obs.Registry

	// runSpan is the root span of the launch in progress; builds started
	// by that launch nest under it. Nil outside a launch — span methods
	// are nil-safe, so standalone builds trace nothing at no cost.
	runSpan *obs.Span

	cache *cas.Cache
}

// BuildStats summarizes one build's dependency-tracker activity.
type BuildStats struct {
	// Executed tasks ran their build action; Restored tasks were served
	// from the artifact cache without running; Skipped were up to date.
	Executed []string
	Skipped  []string
	Restored []string
	// Cache reports the artifact cache's hit/miss/byte counters.
	Cache cas.CacheStats
}

// New creates a Marshal instance with the default board's base workloads
// registered.
func New(workDir string, searchPath ...string) (*Marshal, error) {
	if workDir == "" {
		return nil, fmt.Errorf("core: empty work directory")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	l := spec.NewLoader(searchPath...)
	if err := boards.RegisterBuiltins(l); err != nil {
		return nil, err
	}
	return &Marshal{Loader: l, WorkDir: workDir, Log: io.Discard}, nil
}

func (m *Marshal) logf(format string, args ...any) {
	fmt.Fprintf(m.Log, format+"\n", args...)
}

// Artifact paths.

func (m *Marshal) imagesDir() string { return filepath.Join(m.WorkDir, "images") }

// ImgPath returns the disk-image artifact path for a target name.
func (m *Marshal) ImgPath(target string) string {
	return filepath.Join(m.imagesDir(), target+".img")
}

// BinPath returns the boot-binary artifact path for a target name.
func (m *Marshal) BinPath(target string) string {
	return filepath.Join(m.imagesDir(), target+"-bin")
}

// NoDiskBinPath returns the initramfs-embedded boot binary path (Fig. 3,
// --no-disk).
func (m *Marshal) NoDiskBinPath(target string) string {
	return filepath.Join(m.imagesDir(), target+"-bin-nodisk")
}

// bootFiles is the one rule for what a target boots, given what the build
// made: its no-disk binary and no disk where the build made one (no-disk
// was asked for, by --no-disk or the workload's option, and the target has
// an image to embed), else its own binary and image.
func (m *Marshal) bootFiles(tgt Target, built []BuildResult) (bin, img string) {
	for _, res := range built {
		if res.Target == tgt.Name && res.NoDiskBin != "" {
			return res.NoDiskBin, ""
		}
	}
	return m.BinPath(tgt.Name), m.ImgPath(tgt.Name)
}

// RunDir returns the launch output directory for a target.
func (m *Marshal) RunDir(target string) string {
	return filepath.Join(m.WorkDir, "runs", target)
}

// ManifestPath returns where Launch writes a workload's JSONL run
// manifest: one record per job, in declaration order.
func (m *Marshal) ManifestPath(name string) string {
	return filepath.Join(m.WorkDir, "runs", name+".manifest.jsonl")
}

// TracePath returns where Launch writes a workload's span trace: one
// JSON object per span, deterministically ordered (see internal/obs).
func (m *Marshal) TracePath(name string) string {
	return filepath.Join(m.WorkDir, "runs", name+".trace.jsonl")
}

// JournalPath returns where an in-flight launch journals per-job events.
// The journal exists only between launch start and successful compaction
// into the manifest; its presence marks the run as interrupted.
func (m *Marshal) JournalPath(name string) string {
	return m.ManifestPath(name) + ".journal"
}

// CkptDir is where per-job checkpoint pointer files live. It sits outside
// the per-target run directories, which launches wipe on every attempt.
func (m *Marshal) CkptDir() string {
	return filepath.Join(m.WorkDir, "runs", ".ckpt")
}

// InstallDir returns the directory `install` writes simulator configs to.
func (m *Marshal) InstallDir(name string) string {
	return filepath.Join(m.WorkDir, "firesim", name)
}

func (m *Marshal) stateDB() string { return filepath.Join(m.WorkDir, "state.json") }

// EffectiveCacheDir is where the artifact cache lives.
func (m *Marshal) EffectiveCacheDir() string {
	if m.CacheDir != "" {
		return m.CacheDir
	}
	return filepath.Join(m.WorkDir, "cache")
}

// Cache opens (once) the content-addressed artifact cache, attaching the
// remote-cache client when RemoteCache is configured.
func (m *Marshal) Cache() (*cas.Cache, error) {
	if m.cache != nil {
		return m.cache, nil
	}
	store, err := cas.Open(m.EffectiveCacheDir())
	if err != nil {
		return nil, err
	}
	var rem cas.Remote
	if m.RemoteCache != "" {
		cl := remote.NewClient(m.RemoteCache, 0)
		if m.remoteTransport != nil {
			cl.SetTransport(m.remoteTransport)
		}
		rem = cl
	}
	m.cache = cas.NewCache(store, rem)
	m.cache.SetObs(m.Obs)
	return m.cache, nil
}

// HubCache builds a cas.Cache wrapping this checkout's local store with a
// client for the central hub at hubURL. `marshal cache serve -hub` hands
// it to the server as its write/read-through side: replication to the hub
// rides the cache's circuit breaker, so a dead hub degrades the edge to
// local-only instead of failing requests.
func (m *Marshal) HubCache(hubURL string) (*cas.Cache, error) {
	c, err := m.Cache()
	if err != nil {
		return nil, err
	}
	hub := cas.NewCache(c.Local(), remote.NewClient(hubURL, 0))
	hub.SetObs(m.Obs)
	return hub, nil
}

// CacheGC prunes action-cache entries not referenced by any workload's
// recorded build state, then drops blobs no surviving action references.
// Blobs referenced by a resumable run's checkpoints (any job with a live
// pointer file) are pinned and survive, so a GC between an interruption
// and the `-resume` cannot destroy the run's state.
func (m *Marshal) CacheGC() (cas.GCStats, error) {
	c, err := m.Cache()
	if err != nil {
		return cas.GCStats{}, err
	}
	eng, err := dag.NewEngine(m.stateDB())
	if err != nil {
		return cas.GCStats{}, err
	}
	live := map[string]bool{}
	for _, key := range eng.ActionKeys() {
		live[key] = true
	}
	pinned, err := m.pinnedBlobs(c.Local())
	if err != nil {
		return cas.GCStats{}, err
	}
	return c.Local().GC(live, pinned)
}

// pinnedBlobs collects every blob digest reachable from a live checkpoint
// pointer: the checkpoint document itself plus the pages, platform state,
// and console transcripts it references.
func (m *Marshal) pinnedBlobs(store *cas.Store) (map[string]bool, error) {
	ptrs, err := checkpoint.Pointers(m.CkptDir())
	if err != nil {
		return nil, err
	}
	pinned := map[string]bool{}
	for _, ptr := range ptrs {
		pinned[ptr.Digest] = true
		cp, err := checkpoint.Load(store, ptr)
		if err != nil {
			// A dangling pointer cannot pin what it cannot name; its job
			// resumes from scratch.
			continue
		}
		for _, d := range cp.Refs() {
			pinned[d] = true
		}
	}
	return pinned, nil
}

// CacheVerify re-hashes every blob and checks action outputs, then
// additionally checks every live checkpoint's referenced blobs are
// present — a resumable run whose state was lost surfaces here rather
// than at resume time.
func (m *Marshal) CacheVerify() ([]string, error) {
	c, err := m.Cache()
	if err != nil {
		return nil, err
	}
	store := c.Local()
	problems, err := store.Verify()
	if err != nil {
		return problems, err
	}
	ptrs, err := checkpoint.Pointers(m.CkptDir())
	if err != nil {
		return problems, err
	}
	for _, ptr := range ptrs {
		cp, err := checkpoint.Load(store, ptr)
		if err != nil {
			problems = append(problems, fmt.Sprintf("checkpoint pointer for %s: %v", ptr.Job, err))
			continue
		}
		problems = append(problems, cp.Verify(store)...)
	}
	return problems, nil
}

// CacheRepair is `cache verify -repair`: verify first (corrupt blobs are
// quarantined, becoming misses), then refetch every referenced-but-
// missing blob — action outputs and live-checkpoint refs — from the
// remote cache. It returns the verify problems, how many blobs were
// restored, and how many references remain missing (not on the remote
// either; those degrade to a rebuild). Without a configured remote the
// verify still runs but nothing can heal.
func (m *Marshal) CacheRepair(ctx context.Context) (problems []string, healed, unhealed int, err error) {
	c, err := m.Cache()
	if err != nil {
		return nil, 0, 0, err
	}
	problems, err = m.CacheVerify()
	if err != nil {
		return problems, 0, 0, err
	}
	store := c.Local()

	// Every digest the store is supposed to hold: what live checkpoints
	// pin, plus every action output.
	want, err := m.pinnedBlobs(store)
	if err != nil {
		return problems, 0, 0, err
	}
	actions, err := store.Actions()
	if err != nil {
		return problems, 0, 0, err
	}
	for _, a := range actions {
		for _, o := range a.Outputs {
			want[o.Digest] = true
		}
	}

	digests := make([]string, 0, len(want))
	for d := range want {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	rem := c.Remote()
	for _, digest := range digests {
		if store.Has(digest) {
			continue
		}
		if rem == nil {
			unhealed++
			continue
		}
		data, gerr := rem.GetBlob(ctx, digest)
		if gerr != nil {
			unhealed++
			m.logf("repair: blob %.12s not recoverable from remote: %v", digest, gerr)
			continue
		}
		if _, perr := store.Put(data); perr != nil {
			unhealed++
			m.logf("repair: blob %.12s refetched but not writable: %v", digest, perr)
			continue
		}
		healed++
		m.Obs.Counter("cas_blobs_healed_total").Inc()
		m.logf("repair: healed blob %.12s from remote cache", digest)
	}
	return problems, healed, unhealed, nil
}

// Target identifies one buildable/runnable node of a workload: the root
// workload itself, or one of its jobs.
type Target struct {
	// Name is the artifact name (root name, or "<root>-<job>").
	Name string
	// JobName is the bare job name ("" for the root).
	JobName string
	// Workload is the resolved description.
	Workload *spec.Workload
}

// Targets enumerates the buildable targets of a workload: the root, then
// its jobs in declaration order.
func Targets(w *spec.Workload) []Target {
	out := []Target{{Name: w.Name, Workload: w}}
	for _, job := range w.Jobs {
		out = append(out, Target{Name: w.Name + "-" + job.Name, JobName: job.Name, Workload: job})
	}
	return out
}

// FindTarget returns the target with the given job name ("" = root).
func FindTarget(w *spec.Workload, jobName string) (Target, error) {
	for _, tgt := range Targets(w) {
		if tgt.JobName == jobName {
			return tgt, nil
		}
	}
	return Target{}, fmt.Errorf("core: workload %q has no job %q", w.Name, jobName)
}

// Clean removes build state and artifacts for a workload (all targets),
// then garbage-collects the artifact cache: action entries no longer
// referenced by any workload's recorded state are dropped, along with any
// blobs only they referenced. It reports what the GC reclaimed.
func (m *Marshal) Clean(nameOrPath string) (cas.GCStats, error) {
	w, err := m.Loader.Load(nameOrPath)
	if err != nil {
		return cas.GCStats{}, err
	}
	eng, err := dag.NewEngine(m.stateDB())
	if err != nil {
		return cas.GCStats{}, err
	}
	for _, tgt := range Targets(w) {
		for _, p := range []string{m.ImgPath(tgt.Name), m.BinPath(tgt.Name), m.NoDiskBinPath(tgt.Name)} {
			os.Remove(p)
		}
		for _, prefix := range []string{"host:", "bin:", "img:", "nodisk:"} {
			if err := eng.Forget(prefix + tgt.Name); err != nil {
				return cas.GCStats{}, err
			}
		}
		os.RemoveAll(m.RunDir(tgt.Name))
	}
	gc, err := m.CacheGC()
	if err != nil {
		return gc, err
	}
	m.logf("cleaned %s (cache gc: %d actions, %d blobs, %d bytes reclaimed)",
		w.Name, gc.ActionsRemoved, gc.BlobsRemoved, gc.BytesReclaimed)
	return gc, nil
}

// sortedUnique returns a sorted, de-duplicated copy.
func sortedUnique(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// describeChain renders the inheritance chain for logs.
func describeChain(w *spec.Workload) string {
	var names []string
	for _, c := range w.Effective.Levels {
		names = append(names, c.Name)
	}
	return strings.Join(names, " -> ")
}
