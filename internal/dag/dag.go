// Package dag implements the dependency-tracking build engine FireMarshal
// uses to avoid unnecessary rebuilding ("similar to GNU make ... done with
// the doit python package", §III-B). Tasks declare file dependencies, value
// dependencies (configuration that isn't a file), task dependencies, and
// targets. A persistent state database records the content hashes observed
// at the last successful run; a task re-executes only when a dependency
// hash changed, a value dep changed, a target is missing, or an upstream
// task actually ran.
//
// Like doit, state is keyed by task name and survives across processes via
// a JSON database file. The same file persists the work tree's share of the
// digest cache (hostutil.FileDigest), so a rebuild reads no dependency whose
// stat is unchanged since it was last hashed.
//
// When a content-addressed store is attached (SetCache), the engine also
// consults an action cache before executing: the task digest — a hash of
// the task name, its input content hashes, and its output names — is looked
// up, and on a hit the outputs are restored from the store instead of
// running the action. Tasks that do execute publish their outputs back, so
// sibling workloads, fresh checkouts, and remote-cache peers share one copy
// of every identical artifact.
package dag

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/obs"
)

// osStat is an alias so parallel.go shares the same stat behaviour.
var osStat = os.Stat

// Task is one unit of buildable work.
type Task struct {
	// Name uniquely identifies the task in the graph and the state DB.
	Name string
	// FileDeps are files or directories whose content participates in the
	// up-to-date check.
	FileDeps []string
	// ValueDeps are non-file inputs (e.g. the resolved workload config).
	// They are hashed into the up-to-date check.
	ValueDeps map[string]string
	// TaskDeps name tasks that must run (or be confirmed up to date) first.
	TaskDeps []string
	// Targets are the output files. A missing target forces a run.
	Targets []string
	// Action performs the work. It must create every target.
	Action func() error
	// AlwaysRun forces execution regardless of recorded state (used for
	// launch-style tasks that are not cacheable).
	AlwaysRun bool
}

// taskState is the persisted per-task record.
type taskState struct {
	DepHashes   map[string]string `json:"depHashes"`
	ValueHashes map[string]string `json:"valueHashes"`
	TargetsSeen []string          `json:"targetsSeen"`
	// ActionKey is the action-cache digest the last run was stored under
	// ("" when no cache was attached). Garbage collection treats the keys
	// recorded across the state DB as the live set.
	ActionKey string `json:"actionKey,omitempty"`
}

// Engine executes task graphs with persistent up-to-date state.
//
// The mutex guards the state map and the stats slices: RunMany workers call
// needsRun (which reads state) concurrently with record (which writes it).
type Engine struct {
	mu     sync.Mutex
	dbPath string
	state  map[string]*taskState
	tasks  map[string]*Task
	cache  *cas.Cache

	// digests is the work tree's share of the digest cache, loaded from and
	// saved to the state DB (nil when state is kept in memory only).
	digests *hostutil.DigestSession

	// Stats for observability and the incremental-rebuild benchmark.
	// Executed tasks ran their action; Restored tasks were materialized
	// from the action cache without running; Skipped tasks were already up
	// to date. Read them only after Run/RunMany returns.
	Executed []string
	Skipped  []string
	Restored []string

	// obsReg receives dag_node_* counters (nil = obs.Default); span, when
	// set, parents one child span per non-skipped node in the run trace.
	obsReg *obs.Registry
	span   *obs.Span
}

// digestsKey is the state DB entry that holds the digest cache's records
// instead of a task's state: the empty name, which Register refuses.
const digestsKey = ""

// digestTable is the value stored under digestsKey.
type digestTable struct {
	Files []hostutil.DigestRecord `json:"files"`
}

// NewEngine loads (or initializes) the state database at dbPath. An empty
// dbPath keeps state in memory only.
func NewEngine(dbPath string) (*Engine, error) {
	e := &Engine{dbPath: dbPath, state: map[string]*taskState{}, tasks: map[string]*Task{}}
	if dbPath == "" {
		return e, nil
	}
	var table digestTable
	data, err := os.ReadFile(dbPath)
	switch {
	case err == nil:
		if table, err = e.load(data); err != nil {
			// A corrupt DB degrades to a full rebuild, never a failure.
			e.state, table = map[string]*taskState{}, digestTable{}
		}
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("dag: reading state db: %w", err)
	}
	e.digests = hostutil.OpenDigests(table.Files)
	return e, nil
}

// load parses a state DB: one entry per task, and the digest table under
// digestsKey — absent from a DB an older version wrote, whose every file is
// then hashed.
func (e *Engine) load(data []byte) (digestTable, error) {
	var entries map[string]json.RawMessage
	var table digestTable
	if err := json.Unmarshal(data, &entries); err != nil {
		return table, err
	}
	for name, raw := range entries {
		var err error
		if name == digestsKey {
			err = json.Unmarshal(raw, &table)
		} else {
			st := &taskState{}
			err = json.Unmarshal(raw, st)
			e.state[name] = st
		}
		if err != nil {
			return table, err
		}
	}
	return table, nil
}

// SetCache attaches a content-addressed artifact cache. Tasks with targets
// then restore from / publish to the cache (see the package comment).
func (e *Engine) SetCache(c *cas.Cache) { e.cache = c }

// SetObs attaches the observability layer: node builds and cache restores
// count into r (nil = obs.Default), and each non-skipped node gets a
// child span of parent in the run trace (nil parent disables tracing).
func (e *Engine) SetObs(r *obs.Registry, parent *obs.Span) {
	e.obsReg, e.span = r, parent
}

// Register adds a task to the graph. Registering two tasks with the same
// name is an error.
func (e *Engine) Register(t *Task) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t.Name == "" {
		return fmt.Errorf("dag: task with empty name")
	}
	if _, dup := e.tasks[t.Name]; dup {
		return fmt.Errorf("dag: duplicate task %q", t.Name)
	}
	e.tasks[t.Name] = t
	return nil
}

// ActionKeys returns the action-cache keys recorded in the state DB — the
// live set for cache garbage collection.
func (e *Engine) ActionKeys() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var keys []string
	for _, st := range e.state {
		if st.ActionKey != "" {
			keys = append(keys, st.ActionKey)
		}
	}
	sort.Strings(keys)
	return keys
}

// Run executes the named task and, first, its transitive dependencies.
// It returns whether the task itself actually executed.
func (e *Engine) Run(name string) (bool, error) {
	before := len(e.Executed)
	err := e.RunMany([]string{name}, 1)
	for _, ran := range e.Executed[before:] {
		if ran == name {
			return true, err
		}
	}
	return false, err
}

// execute applies the up-to-date check, the action cache, and finally the
// task's action. It returns whether the action actually ran — a restore
// from the cache reports false, because downstream tasks need no forced
// rebuild when their input bytes are unchanged (they re-check hashes and
// hit the cache themselves if state is missing).
func (e *Engine) execute(t *Task, upstreamRan bool) (bool, error) {
	need, err := e.needsRun(t, upstreamRan)
	if err != nil {
		return false, err
	}
	if !need {
		e.note(&e.Skipped, t.Name)
		return false, nil
	}

	// Up-to-date nodes stay out of the trace; restored and built nodes
	// each get one span with a deterministic per-node path.
	span := e.span.Child("node:" + t.Name)
	defer span.End()

	key := ""
	var targets []string // in publish/restore order; set when cacheable
	if e.cacheable(t) {
		targets = sortedTargets(t)
		deps, err := e.depHashes(t)
		if err != nil {
			return false, err
		}
		key = taskKey(t, deps, valueHashes(t))
		if a := e.cache.Lookup(key); a != nil {
			if rerr := e.cache.Restore(a, targets); rerr == nil {
				// A restore never touches the task's inputs, so the hashes
				// computed for the key are still current — no second pass.
				e.recordHashes(t, key, deps)
				e.note(&e.Restored, t.Name)
				e.obsReg.Counter("dag_node_cache_restores_total").Inc()
				span.Attr("outcome", "restored")
				return false, nil
			}
			// A failed restore (missing/corrupt blob, truncated transfer)
			// falls through to executing the task.
		}
	}

	if t.Action != nil {
		if err := t.Action(); err != nil {
			return false, fmt.Errorf("dag: task %q: %w", t.Name, err)
		}
	}
	for _, target := range t.Targets {
		if _, err := osStat(target); err != nil {
			return false, fmt.Errorf("dag: task %q did not produce target %q", t.Name, target)
		}
	}
	if key != "" {
		// Publishing is best-effort: a full disk or dead remote must not
		// fail a build whose artifacts already exist on disk.
		e.cache.Publish(key, t.Name, targets)
	}
	if err := e.record(t, key); err != nil {
		return false, err
	}
	e.note(&e.Executed, t.Name)
	e.obsReg.Counter("dag_node_builds_total").Inc()
	span.Attr("outcome", "built")
	return true, nil
}

// cacheable reports whether t participates in the action cache: only tasks
// with declared outputs are safe to satisfy without running (side-effect
// tasks like host-init scripts and always-run launches are excluded).
func (e *Engine) cacheable(t *Task) bool {
	return e.cache != nil && !t.AlwaysRun && len(t.Targets) > 0
}

// taskKey digests a task's identity and inputs for the action cache. Only
// content hashes and base names go in — never absolute paths — so two
// checkouts (or machines) building identical inputs share entries.
func taskKey(t *Task, deps, vals map[string]string) string {
	parts := []string{"task", t.Name, "deps"}
	depHashes := make([]string, 0, len(deps))
	for _, h := range deps {
		depHashes = append(depHashes, h)
	}
	sort.Strings(depHashes)
	parts = append(parts, depHashes...)
	parts = append(parts, "vals")
	valKeys := make([]string, 0, len(vals))
	for k := range vals {
		valKeys = append(valKeys, k)
	}
	sort.Strings(valKeys)
	for _, k := range valKeys {
		parts = append(parts, k, vals[k])
	}
	parts = append(parts, "targets")
	for _, target := range sortedTargets(t) {
		parts = append(parts, filepath.Base(target))
	}
	return hostutil.HashStrings(parts...)
}

// sortedTargets returns the task's targets in the canonical (sorted) order
// used for both publishing and restoring.
func sortedTargets(t *Task) []string {
	targets := append([]string(nil), t.Targets...)
	sort.Slice(targets, func(i, j int) bool {
		return filepath.Base(targets[i]) < filepath.Base(targets[j])
	})
	return targets
}

// note appends a task name to one of the stats slices under the lock.
func (e *Engine) note(slice *[]string, name string) {
	e.mu.Lock()
	*slice = append(*slice, name)
	e.mu.Unlock()
}

// needsRun decides whether the task must execute.
func (e *Engine) needsRun(t *Task, upstreamRan bool) (bool, error) {
	if t.AlwaysRun || upstreamRan {
		return true, nil
	}
	for _, target := range t.Targets {
		if _, err := osStat(target); err != nil {
			return true, nil
		}
	}
	e.mu.Lock()
	st, ok := e.state[t.Name]
	e.mu.Unlock()
	if !ok {
		return true, nil
	}
	// Target set changed since last run.
	targets := append([]string(nil), t.Targets...)
	sort.Strings(targets)
	if !equalSlices(targets, st.TargetsSeen) {
		return true, nil
	}
	cur, err := e.depHashes(t)
	if err != nil {
		return false, err
	}
	if len(cur) != len(st.DepHashes) {
		return true, nil
	}
	for k, v := range cur {
		if st.DepHashes[k] != v {
			return true, nil
		}
	}
	vals := valueHashes(t)
	if len(vals) != len(st.ValueHashes) {
		return true, nil
	}
	for k, v := range vals {
		if st.ValueHashes[k] != v {
			return true, nil
		}
	}
	return false, nil
}

// depHashes returns the content hash of every file dependency, through the
// digest cache: a file whose stat is unchanged since it was hashed, or since
// the artifact cache published or restored it, is not read again.
func (e *Engine) depHashes(t *Task) (map[string]string, error) {
	out := make(map[string]string, len(t.FileDeps))
	var hashed int64
	for _, dep := range t.FileDeps {
		sum, n, err := hostutil.HashTree(dep)
		hashed += n
		if err != nil {
			return nil, fmt.Errorf("dag: hashing dep %q of %q: %w", dep, t.Name, err)
		}
		out[dep] = sum
	}
	e.obsReg.Counter("dag_dep_bytes_hashed_total").Add(uint64(hashed))
	return out, nil
}

func valueHashes(t *Task) map[string]string {
	out := make(map[string]string, len(t.ValueDeps))
	for k, v := range t.ValueDeps {
		out[k] = hostutil.HashStrings(v)
	}
	return out
}

func (e *Engine) record(t *Task, actionKey string) error {
	// Hashes are taken after the action ran: an action is allowed to touch
	// (regenerate) one of its own inputs, and the post-run content is what
	// the next up-to-date check must compare against.
	deps, err := e.depHashes(t)
	if err != nil {
		return err
	}
	e.recordHashes(t, actionKey, deps)
	return nil
}

// recordHashes stores state from already-computed dep hashes (the cache
// restore path, where inputs provably did not change).
func (e *Engine) recordHashes(t *Task, actionKey string, deps map[string]string) {
	targets := append([]string(nil), t.Targets...)
	sort.Strings(targets)
	e.mu.Lock()
	e.state[t.Name] = &taskState{DepHashes: deps, ValueHashes: valueHashes(t), TargetsSeen: targets, ActionKey: actionKey}
	e.mu.Unlock()
}

// Forget drops recorded state for a task (used by `marshal clean`).
func (e *Engine) Forget(name string) error {
	e.mu.Lock()
	delete(e.state, name)
	e.mu.Unlock()
	return e.save()
}

// save persists the state database atomically, with the digest cache's
// records for the files this work tree's builds used.
func (e *Engine) save() error {
	if e.dbPath == "" {
		return nil
	}
	doc := map[string]any{digestsKey: digestTable{Files: e.digests.Records()}}
	e.mu.Lock()
	for name, st := range e.state {
		doc[name] = st
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return hostutil.WriteFileAtomic(e.dbPath, data, 0o644)
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
