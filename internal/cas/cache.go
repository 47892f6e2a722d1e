package cas

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"firemarshal/internal/hostutil"
	"firemarshal/internal/obs"
)

// Remote is a second-level cache backend (the HTTP client in cas/remote
// implements it). Absent entries are reported with ErrNotFound; any other
// error counts against the remote's health. Every call takes a context so
// a hung remote is bounded by the caller's deadline (and by the client's
// own per-request timeout) instead of stalling a build until the circuit
// breaker trips.
type Remote interface {
	// GetBlob returns bytes it has checked against digest (ErrCorrupt
	// otherwise): the cache files them locally under that digest without
	// hashing them a second time.
	GetBlob(ctx context.Context, digest string) ([]byte, error)
	PutBlob(ctx context.Context, digest string, data []byte) error
	GetAction(ctx context.Context, key string) (*Action, error)
	PutAction(ctx context.Context, a *Action) error
}

// RateLimitedError reports a remote that answered 429 past the client's
// retry budget. It carries the server's Retry-After hint so the breaker
// can hold off exactly as long as asked instead of guessing — and it is
// deliberately NOT a health failure: a rate-limiting server is alive and
// protecting itself, so it must not trip the breaker open.
type RateLimitedError struct {
	RetryAfter time.Duration
}

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("cas: remote rate limited (retry after %s)", e.RetryAfter)
}

// Circuit-breaker tuning.
const (
	// remoteTripThreshold is how many consecutive remote failures open
	// the breaker (graceful local-only degradation).
	remoteTripThreshold = 3
	// defaultBreakerCooldown is how long the breaker stays open before
	// letting one half-open probe through; each failed probe doubles it
	// up to maxBreakerCooldown.
	defaultBreakerCooldown = 5 * time.Second
	maxBreakerCooldown     = 2 * time.Minute
)

// Breaker states (also the cas_remote_breaker_state gauge values).
const (
	breakerClosed   = 0 // remote healthy, all calls go through
	breakerHalfOpen = 1 // cooldown elapsed, exactly one probe in flight
	breakerOpen     = 2 // remote disabled, waiting out the cooldown
)

// Cache is what the build engine talks to: a local Store, optionally backed
// by a Remote. Lookups try local first, then remote (with write-through to
// local); publishes go to local and best-effort to remote. A remote that
// keeps failing is breakered off so an unreachable server costs a bounded
// number of timeouts, never a failed build — and after a cooldown the
// breaker goes half-open and risks a single probe, so one transient blip
// no longer disables the remote for the rest of a long run.
type Cache struct {
	local  *Store
	remote Remote

	mu        sync.Mutex
	failures  int // consecutive remote failures
	state     int // breakerClosed / breakerHalfOpen / breakerOpen
	openedAt  time.Time
	cooldown  time.Duration // current open-state cooldown (doubles per failed probe)
	base      time.Duration // configured base cooldown
	probing   bool          // a half-open probe is in flight
	holdUntil time.Time     // 429 Retry-After hold, orthogonal to breaker state
	now       func() time.Time
	stats     CacheStats

	// obsReg mirrors the stats into cas_* metrics; a nil registry
	// resolves to the process-wide obs.Default.
	obsReg *obs.Registry

	// baseCtx parents every remote call. The dag engine predates contexts,
	// so builds install their run context here (SetContext) and remote
	// requests inherit its cancellation; nil means context.Background().
	baseCtx context.Context
}

// CacheStats counts one Cache's activity (in-memory, per process).
type CacheStats struct {
	// Action-cache lookups.
	Hits, Misses          uint64
	LocalHits, RemoteHits uint64
	// Artifact restores served from the cache.
	BlobsRestored, BytesRestored uint64
	RemoteBlobHits               uint64
	// Publishes into the cache.
	Published, BytesPublished uint64
	// Remote health. RemoteTripped reports the breaker fully open (it
	// goes false again once a half-open probe succeeds).
	RemoteErrors      uint64
	RemoteTripped     bool
	RemoteRateLimited uint64
	// Self-healing: corrupt local blobs rewritten from the remote.
	BlobsHealed uint64
}

// NewCache wraps a local store; remote may be nil for local-only operation.
func NewCache(local *Store, remote Remote) *Cache {
	return &Cache{
		local:    local,
		remote:   remote,
		cooldown: defaultBreakerCooldown,
		base:     defaultBreakerCooldown,
		now:      time.Now,
	}
}

// SetBreakerCooldown overrides the half-open cooldown (tests shrink it;
// <= 0 keeps the default).
func (c *Cache) SetBreakerCooldown(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.base = d
	c.cooldown = d
	c.mu.Unlock()
}

// Local exposes the underlying store (stats, GC, verify, serving).
func (c *Cache) Local() *Store { return c.local }

// Remote exposes the remote half (nil when no remote cache is configured).
// Callers that need raw blob access — the distributed launcher publishing
// artifacts, workers fetching them — go through it directly.
func (c *Cache) Remote() Remote { return c.remote }

// SetObs directs the cache's cas_* metrics at a specific registry (nil
// keeps the process-wide obs.Default). A cache with a remote publishes
// its breaker state there at once: the gauge is otherwise set only on a
// transition, and a breaker that never trips is still a reading.
func (c *Cache) SetObs(r *obs.Registry) {
	c.obsReg = r
	if c.remote != nil {
		r.Gauge("cas_remote_breaker_state").Set(float64(c.BreakerState()))
	}
}

// SetContext installs the context remote calls run under. Cancelling it
// aborts in-flight remote requests promptly — a hung server can no longer
// stall a build past the caller's deadline. A nil ctx restores Background.
func (c *Cache) SetContext(ctx context.Context) {
	c.mu.Lock()
	c.baseCtx = ctx
	c.mu.Unlock()
}

func (c *Cache) ctx() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.baseCtx == nil {
		return context.Background()
	}
	return c.baseCtx
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.RemoteTripped = c.state == breakerOpen
	return st
}

// BreakerState reports the breaker position (the gauge encoding:
// 0 closed, 1 half-open, 2 open).
func (c *Cache) BreakerState() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// setStateLocked transitions the breaker and mirrors the new state into
// the cas_remote_breaker_state gauge. Caller holds c.mu.
func (c *Cache) setStateLocked(state int) {
	c.state = state
	c.obsReg.Gauge("cas_remote_breaker_state").Set(float64(state))
}

// remoteUsable gates every remote call on the breaker state machine:
//
//	closed    → go ahead
//	open      → refused until the cooldown elapses, then half-open
//	half-open → exactly one probe call goes through; everyone else is
//	            refused until the probe's outcome resolves the state
//
// A 429 hold (holdUntil) refuses calls in any state — the server asked
// us to back off, and honoring that is not a health judgment.
func (c *Cache) remoteUsable() bool {
	if c.remote == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if now.Before(c.holdUntil) {
		return false
	}
	switch c.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(c.openedAt) < c.cooldown {
			return false
		}
		c.setStateLocked(breakerHalfOpen)
		c.probing = false
		fallthrough
	default: // breakerHalfOpen
		if c.probing {
			return false
		}
		c.probing = true
		return true
	}
}

// noteRemote records a remote call's outcome and drives the breaker:
// consecutive failures open it; a successful half-open probe closes it
// and resets the cooldown; a failed probe reopens it with the cooldown
// doubled (capped). Rate limiting is handled out of band: the Retry-After
// hint becomes a hold, not a failure. Every call is one remote
// round-trip, counted as such.
func (c *Cache) noteRemote(err error) {
	c.obsReg.Counter("cas_remote_roundtrips_total").Inc()
	var rl *RateLimitedError
	rateLimited := errors.As(err, &rl)
	failed := err != nil && !errors.Is(err, ErrNotFound) && !rateLimited
	if failed {
		c.obsReg.Counter("cas_remote_errors_total").Inc()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rateLimited {
		c.stats.RemoteRateLimited++
		c.obsReg.Counter("cas_remote_rate_limited_total").Inc()
		hold := rl.RetryAfter
		if hold <= 0 {
			hold = time.Second
		}
		c.holdUntil = c.now().Add(hold)
		c.probing = false // the probe didn't answer the health question
		return
	}
	if !failed {
		c.failures = 0
		if c.state != breakerClosed {
			c.setStateLocked(breakerClosed)
			c.cooldown = c.base
		}
		c.probing = false
		return
	}
	c.stats.RemoteErrors++
	c.failures++
	switch {
	case c.state == breakerHalfOpen:
		// The probe failed: reopen and back off harder.
		c.setStateLocked(breakerOpen)
		c.openedAt = c.now()
		if c.cooldown *= 2; c.cooldown > maxBreakerCooldown {
			c.cooldown = maxBreakerCooldown
		}
		c.probing = false
	case c.state == breakerClosed && c.failures >= remoteTripThreshold:
		c.setStateLocked(breakerOpen)
		c.openedAt = c.now()
	}
}

// Lookup returns the action entry for key, or nil on a miss. A remote hit
// is written through to the local store.
func (c *Cache) Lookup(key string) *Action {
	if a, err := c.local.GetAction(key); err == nil {
		c.count(func(s *CacheStats) { s.Hits++; s.LocalHits++ })
		c.obsReg.Counter("cas_action_hits_total").Inc()
		return a
	}
	if c.remoteUsable() {
		a, err := c.remote.GetAction(c.ctx(), key)
		c.noteRemote(err)
		if err == nil && a != nil {
			c.local.PutAction(a)
			c.count(func(s *CacheStats) { s.Hits++; s.RemoteHits++ })
			c.obsReg.Counter("cas_action_hits_total").Inc()
			c.obsReg.Counter("cas_action_remote_hits_total").Inc()
			return a
		}
	}
	c.count(func(s *CacheStats) { s.Misses++ })
	c.obsReg.Counter("cas_action_misses_total").Inc()
	return nil
}

// blob fetches one blob, falling back to the remote (write-through) when
// the local store misses or is corrupt. The corrupt case is the read-path
// self-heal: Get already quarantined the bad bytes, the remote refetch is
// digest-verified by GetBlob, and the put rewrites the blob in place under
// the digest just checked. A failed write-back only degrades — the verified
// remote bytes are still served. Besides the bytes it returns the stat of
// the local blob file that holds them: the one they were verified from, or
// the one the write-back made of them (nil when there is none, and under a
// tamper hook, whose torn writes a write-back may hold). Without keep, a
// local blob is verified without its bytes being kept (Store.read).
func (c *Cache) blob(digest string, keep bool) ([]byte, os.FileInfo, error) {
	data, fi, err := c.local.read(digest, keep)
	if err == nil {
		return data, fi, nil
	}
	if c.remoteUsable() {
		rdata, rerr := c.remote.GetBlob(c.ctx(), digest)
		c.noteRemote(rerr)
		if rerr == nil {
			c.count(func(s *CacheStats) { s.RemoteBlobHits++ })
			c.obsReg.Counter("cas_blob_remote_hits_total").Inc()
			var fi os.FileInfo
			if perr := c.local.put(digest, rdata); perr != nil {
				c.obsReg.Counter("cas_writeback_failures_total").Inc()
			} else {
				if errors.Is(err, ErrCorrupt) {
					c.count(func(s *CacheStats) { s.BlobsHealed++ })
					c.obsReg.Counter("cas_blobs_healed_total").Inc()
				}
				if c.local.tamper == nil {
					fi, _ = os.Stat(c.local.blobPath(digest))
				}
			}
			return rdata, fi, nil
		}
		return nil, nil, fmt.Errorf("%w (remote: %v)", err, rerr)
	}
	return nil, nil, err
}

// Blob returns one blob's bytes, local-first with remote fallback,
// write-through, and self-healing — the exported face of blob() for the
// cache server's hub mode (a local miss on GET is answered from the hub
// and kept).
func (c *Cache) Blob(digest string) ([]byte, error) {
	data, _, err := c.blob(digest, true)
	return data, err
}

// PushBlob best-effort replicates a locally-present blob to the remote,
// through the breaker — the write-through half of hub mode. Failures
// degrade (and feed the breaker); they are never surfaced, because the
// local write already succeeded.
func (c *Cache) PushBlob(digest string) {
	if !c.remoteUsable() {
		return
	}
	data, err := c.local.Get(digest)
	if err != nil {
		c.releaseProbe()
		return
	}
	c.noteRemote(c.remote.PutBlob(c.ctx(), digest, data))
}

// releaseProbe gives up the half-open probe slot remoteUsable may have
// granted, for a caller whose local read failed before it reached the
// remote: a local problem says nothing about remote health.
func (c *Cache) releaseProbe() {
	c.mu.Lock()
	c.probing = false
	c.mu.Unlock()
}

// PushAction best-effort replicates an action entry to the remote,
// through the breaker (hub-mode write-through).
func (c *Cache) PushAction(a *Action) {
	if !c.remoteUsable() {
		return
	}
	c.noteRemote(c.remote.PutAction(c.ctx(), a))
}

// Restore materializes an action's outputs at the given target paths
// (sorted order, matching Publish). Any missing or corrupt blob aborts the
// restore; the caller falls back to executing the task.
func (c *Cache) Restore(a *Action, targets []string) error {
	if len(a.Outputs) != len(targets) {
		return fmt.Errorf("cas: action %s has %d outputs, task wants %d targets", a.Key[:12], len(a.Outputs), len(targets))
	}
	for i, o := range a.Outputs {
		n, err := c.restore(o, targets[i])
		if err != nil {
			return fmt.Errorf("cas: restoring %s: %w", o.Name, err)
		}
		c.count(func(s *CacheStats) { s.BlobsRestored++; s.BytesRestored += uint64(n) })
		c.obsReg.Counter("cas_blobs_restored_total").Inc()
		c.obsReg.Counter("cas_bytes_restored_total").Add(uint64(n))
	}
	return nil
}

// restore puts one output at target, read-only, and returns its size. The
// blob is streamed through SHA-256 and, where it carries the output's mode,
// hard-linked at target. Where no link is made — another mode, another file
// system — its bytes are read and verified again and the target is written
// from them. Either way the target holds verified bytes, and the digest
// cache learns it.
func (c *Cache) restore(o Output, target string) (int64, error) {
	perm := os.FileMode(o.Mode).Perm() &^ 0o222
	if o.Mode == 0 {
		perm = blobMode
	}
	data, verified, err := c.blob(o.Digest, false)
	if err != nil {
		return 0, err
	}
	if verified != nil && verified.Mode().Perm()&^0o222 == perm && c.local.link(o.Digest, target, verified) == nil {
		return verified.Size(), nil
	}
	if data == nil {
		if data, _, err = c.blob(o.Digest, true); err != nil {
			return 0, err
		}
	}
	placed, err := hostutil.WriteAtomic(target, perm, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return 0, err
	}
	hostutil.NoteDigest(target, o.Digest, placed)
	return int64(len(data)), nil
}

// Publish stores a task's produced targets (sorted order) as blobs plus an
// action entry, and pushes both to the remote best-effort. Each target is
// filed by hard link, losing its write bits (Store.file). Local failures are
// returned; remote failures only degrade future remote use.
func (c *Cache) Publish(key, task string, targets []string) (*Action, error) {
	a := &Action{Key: key, Task: task}
	// Hold every published blob until the action entry referencing them
	// is on disk: a concurrent GC sweeping between the blob writes and
	// the action write would otherwise see unreferenced blobs and reap
	// half a publish.
	var releases []func()
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	for _, target := range targets {
		digest, fi, err := c.local.file(target)
		if err != nil {
			return nil, fmt.Errorf("cas: publishing %s: %w", task, err)
		}
		releases = append(releases, c.local.Hold(digest))
		a.Outputs = append(a.Outputs, Output{Name: filepath.Base(target), Digest: digest, Mode: uint32(fi.Mode().Perm()), Size: fi.Size()})
		c.count(func(s *CacheStats) { s.BytesPublished += uint64(fi.Size()) })
		c.obsReg.Counter("cas_bytes_published_total").Add(uint64(fi.Size()))
	}
	if err := c.local.PutAction(a); err != nil {
		return nil, err
	}
	c.count(func(s *CacheStats) { s.Published++ })
	c.obsReg.Counter("cas_actions_published_total").Inc()
	if c.remoteUsable() {
		for i, o := range a.Outputs {
			data, err := os.ReadFile(targets[i])
			if err == nil {
				err = c.remote.PutBlob(c.ctx(), o.Digest, data)
				c.noteRemote(err)
			} else {
				c.releaseProbe()
			}
			if err != nil {
				return a, nil // degrade silently; local publish succeeded
			}
		}
		err := c.remote.PutAction(c.ctx(), a)
		c.noteRemote(err)
	}
	return a, nil
}

func (c *Cache) count(f func(*CacheStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}
