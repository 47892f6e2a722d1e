// Package dag implements the dependency-tracking build engine FireMarshal
// uses to avoid unnecessary rebuilding ("similar to GNU make ... done with
// the doit python package", §III-B). Tasks declare file dependencies, value
// dependencies (configuration that isn't a file), task dependencies, and
// targets. One key states a task's inputs (taskKey): its name, each file
// dependency's content and exec bit in declaration order, its values by
// name, and its targets' base names. A persistent state database records
// the key of each task's last successful run; a task is up to date when no
// upstream task ran, every target exists, and the key of its current inputs
// equals the recorded one.
//
// Like doit, state is keyed by task name and survives across processes via
// a JSON database file. The same file persists the work tree's share of the
// digest cache (hostutil.FileDigest), so a rebuild reads no dependency whose
// stat is unchanged since it was last hashed.
//
// When a content-addressed store is attached (SetCache), the same key names
// the task in an action cache: a task that is not up to date is looked up,
// and on a hit its outputs are restored from the store instead of running
// the action. Tasks that do execute publish their outputs back, so sibling
// workloads, fresh checkouts, and remote-cache peers share one copy of every
// identical artifact.
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
	// FileDeps are files or directories whose content (and exec bits) make
	// part of the task's key, each in its position.
	FileDeps []string
	// ValueDeps are non-file inputs (e.g. the resolved workload config),
	// keyed by name.
	ValueDeps map[string]string
	// TaskDeps name tasks that must run (or be confirmed up to date) first.
	TaskDeps []string
	// Targets are the output files. A missing target forces a run.
	Targets []string
	// Action performs the work. It must create every target.
	Action func() error
}

// stateDoc is the state database: the key each task last succeeded with,
// and the digest cache's records for the files this work tree's builds
// used. A DB an older version wrote has neither field and reads as empty.
type stateDoc struct {
	Tasks map[string]string       `json:"tasks"`
	Files []hostutil.DigestRecord `json:"files"`
}

// Engine executes task graphs with persistent up-to-date state.
//
// The mutex guards the recorded keys and the stats slices: RunMany workers
// call needsRun (which reads a key) concurrently with setKey.
type Engine struct {
	mu     sync.Mutex
	dbPath string
	keys   map[string]string // task name -> key of its last successful run
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

// NewEngine loads (or initializes) the state database at dbPath. An empty
// dbPath keeps state in memory only.
func NewEngine(dbPath string) (*Engine, error) {
	e := &Engine{dbPath: dbPath, keys: map[string]string{}, tasks: map[string]*Task{}}
	if dbPath == "" {
		return e, nil
	}
	var doc stateDoc
	data, err := os.ReadFile(dbPath)
	switch {
	case err == nil:
		if json.Unmarshal(data, &doc) != nil {
			// A corrupt DB degrades to a full rebuild, never a failure.
			doc = stateDoc{}
		}
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("dag: reading state db: %w", err)
	}
	if doc.Tasks != nil {
		e.keys = doc.Tasks
	}
	e.digests = hostutil.OpenDigests(doc.Files)
	return e, nil
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

// ActionKeys returns the keys recorded in the state DB — the live set for
// cache garbage collection.
func (e *Engine) ActionKeys() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.keys))
	for _, key := range e.keys {
		keys = append(keys, key)
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
// rebuild when their input bytes are unchanged (they compare their own keys
// and hit the cache themselves if state is missing).
func (e *Engine) execute(t *Task, upstreamRan bool) (bool, error) {
	need, key, err := e.needsRun(t, upstreamRan)
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

	// Only a task with declared outputs is safe to satisfy without running
	// it; a side-effect task (a host-init script) is never cached.
	cacheable := e.cache != nil && len(t.Targets) > 0
	var targets []string // in publish/restore order; set when cacheable
	if cacheable {
		targets = sortedTargets(t)
		if key == "" {
			if key, err = e.taskKey(t); err != nil {
				return false, err
			}
		}
		if a := e.cache.Lookup(key); a != nil {
			if rerr := e.cache.Restore(a, targets); rerr == nil {
				// A restore never touches the task's inputs, so the key
				// computed for the lookup is still current.
				e.setKey(t.Name, key)
				e.note(&e.Restored, t.Name)
				e.obsReg.Counter("dag_node_cache_restores_total").Inc()
				span.Attr("outcome", "restored")
				return false, nil
			}
			// A failed restore (missing/corrupt blob, truncated transfer)
			// falls through to executing the task.
		}
	}

	if err := act(t); err != nil {
		// The action may have left its targets half made: nothing recorded
		// for them before holds now.
		e.setKey(t.Name, "")
		return false, err
	}
	if cacheable {
		// Publishing is best-effort: a full disk or dead remote must not
		// fail a build whose artifacts already exist on disk.
		e.cache.Publish(key, t.Name, targets)
	}
	// The key is taken again after the action ran: an action is allowed to
	// touch (regenerate) one of its own inputs, and the post-run content is
	// what the next up-to-date check must compare against.
	post, err := e.taskKey(t)
	if err != nil {
		return false, err
	}
	e.setKey(t.Name, post)
	e.note(&e.Executed, t.Name)
	e.obsReg.Counter("dag_node_builds_total").Inc()
	span.Attr("outcome", "built")
	return true, nil
}

// act runs t's action and checks that it made every target.
func act(t *Task) error {
	if t.Action != nil {
		if err := t.Action(); err != nil {
			return fmt.Errorf("dag: task %q: %w", t.Name, err)
		}
	}
	for _, target := range t.Targets {
		if _, err := osStat(target); err != nil {
			return fmt.Errorf("dag: task %q did not produce target %q", t.Name, target)
		}
	}
	return nil
}

// needsRun decides whether t must execute: when an upstream task ran, when
// a target is missing, or when the key of its current inputs is not the one
// recorded for it. It returns that key when it computed one.
func (e *Engine) needsRun(t *Task, upstreamRan bool) (bool, string, error) {
	if upstreamRan {
		return true, "", nil
	}
	for _, target := range t.Targets {
		if _, err := osStat(target); err != nil {
			return true, "", nil
		}
	}
	key, err := e.taskKey(t)
	if err != nil {
		return false, "", err
	}
	e.mu.Lock()
	recorded := e.keys[t.Name]
	e.mu.Unlock()
	return key != recorded, key, nil
}

// taskKey is the one statement of a task's inputs: the key the up-to-date
// check compares and the action cache files the outputs under. It holds the
// task's name, each file dependency's HashTree digest (content, plus the
// exec bit of each regular file) in its FileDeps position — so two inputs
// swapping contents change it — the value deps by name, and the targets'
// base names. No path goes in, so two checkouts (or machines) building
// identical inputs share entries. Digests come through the digest cache: a
// file whose stat is unchanged since it was hashed, or since the artifact
// cache published or restored it, is not read again.
func (e *Engine) taskKey(t *Task) (string, error) {
	parts := []string{"task/2", t.Name, "deps"}
	var hashed int64
	for _, dep := range t.FileDeps {
		sum, n, err := hostutil.HashTree(dep)
		hashed += n
		if err != nil {
			return "", fmt.Errorf("dag: hashing dep %q of %q: %w", dep, t.Name, err)
		}
		parts = append(parts, sum)
	}
	e.obsReg.Counter("dag_dep_bytes_hashed_total").Add(uint64(hashed))
	parts = append(parts, "vals")
	names := make([]string, 0, len(t.ValueDeps))
	for name := range t.ValueDeps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		parts = append(parts, name, t.ValueDeps[name])
	}
	parts = append(parts, "targets")
	for _, target := range sortedTargets(t) {
		parts = append(parts, filepath.Base(target))
	}
	return hostutil.HashStrings(parts...), nil
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

// setKey records the key of a task's last successful run; "" forgets it.
func (e *Engine) setKey(name, key string) {
	e.mu.Lock()
	if key == "" {
		delete(e.keys, name)
	} else {
		e.keys[name] = key
	}
	e.mu.Unlock()
}

// Forget drops recorded state for a task (used by `marshal clean`).
func (e *Engine) Forget(name string) error {
	e.setKey(name, "")
	return e.save()
}

// save persists the state database atomically, with the digest cache's
// records for the files this work tree's builds used.
func (e *Engine) save() error {
	if e.dbPath == "" {
		return nil
	}
	doc := stateDoc{Files: e.digests.Records()}
	e.mu.Lock()
	doc.Tasks = e.keys
	data, err := json.MarshalIndent(doc, "", "  ")
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return hostutil.WriteFileAtomic(e.dbPath, data, 0o644)
}
