package core

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/chaos"
	"firemarshal/internal/hostutil"
	lremote "firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/ratelimit"
)

// ChaosOpts parameterizes `marshal chaos`.
type ChaosOpts struct {
	// Seed names the fault schedule (chaos.DefaultPlan(Seed)).
	Seed int64
	// Workers is the loopback fleet size (default 3; minimum 2, so the
	// flaky worker and the slow worker are distinct machines).
	Workers int
	// SlowJobDelay is how long the slow worker stalls each lease before
	// executing it (default 2s): its queued leases are what the idle
	// workers steal.
	SlowJobDelay time.Duration
	// JobTimeout bounds each job attempt (0 = none).
	JobTimeout time.Duration
	// Out receives the report (nil uses the Marshal log).
	Out io.Writer
}

// A chaos run is short: the cache breaker recovers and the coordinator
// polls (lease TTL 100 × 25ms) on a shorter clock than a real fleet's.
const (
	chaosBreakerCooldown = 300 * time.Millisecond
	chaosWorkerPoll      = 25 * time.Millisecond
)

// ChaosJob is one job's comparable outcome: everything that must be
// bit-identical between the clean and faulty runs.
type ChaosJob struct {
	Job           string
	Cycles        uint64
	Exit          int64
	ConsoleDigest string
}

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	Seed        int64
	Fingerprint string
	// Jobs holds the faulty run's per-job outcomes (name-sorted);
	// Mismatches lists every divergence from the clean baseline (empty =
	// bit-identical).
	Jobs       []ChaosJob
	Mismatches []string

	// Survival metrics from the faulty run's registry.
	Healed            uint64  // cas_blobs_healed_total
	WritebackFailures uint64  // cas_writeback_failures_total
	WorkerQuarantines uint64  // remote_worker_quarantines_total
	QuarantinedNow    float64 // remote_workers_quarantined (gauge)
	Steals            uint64  // remote_steals_total
	LeaseExpiries     uint64  // remote_lease_expiries_total
	RateLimited       uint64  // cas_remote_rate_limited_total
	Throttled         uint64  // serve_throttled_total
	HTTPFaults        uint64  // chaos_http_faults_total
	StoreFaults       uint64  // chaos_store_* total
	BreakerState      float64 // cas_remote_breaker_state (gauge)
}

// Identical reports whether the faulty run matched the clean baseline
// bit-for-bit.
func (r *ChaosReport) Identical() bool { return len(r.Mismatches) == 0 }

// Chaos is the chaos gate: run the workload on a clean loopback fleet,
// run it again on an identical fleet under the seed's fault schedule —
// injected blob corruption in every worker store, dropped/5xx/429/
// truncated/duplicated HTTP traffic on every edge, one flaky worker the
// coordinator must quarantine, one slow worker whose queue it must steal, and
// a rate-limited hub — then assert zero lost jobs and bit-identical
// cycles, exit codes, and console bytes. The fault schedule is a pure
// function of (seed, site, call index), so the same seed replays the
// same faults (`marshal chaos -schedule-only` prints the schedule
// without running anything).
func (m *Marshal) Chaos(ctx context.Context, nameOrPath string, opts ChaosOpts) (*ChaosReport, error) {
	if opts.Workers <= 0 {
		opts.Workers = 3
	}
	if opts.Workers < 2 {
		opts.Workers = 2
	}
	if opts.SlowJobDelay <= 0 {
		opts.SlowJobDelay = 2 * time.Second
	}
	out := opts.Out
	if out == nil {
		out = m.Log
	}

	plan := chaos.DefaultPlan(opts.Seed)
	report := &ChaosReport{Seed: opts.Seed, Fingerprint: plan.Fingerprint()}
	fmt.Fprintf(out, "chaos: seed=%d fingerprint=%s workers=%d\n", opts.Seed, report.Fingerprint, opts.Workers)

	base := filepath.Join(m.WorkDir, "chaos")
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}

	fmt.Fprintf(out, "chaos: clean fleet run (baseline)\n")
	cleanJobs, _, err := m.runChaosFleet(ctx, nameOrPath, filepath.Join(base, "clean"), nil, opts)
	if err != nil {
		return nil, fmt.Errorf("core: chaos baseline run failed: %w", err)
	}

	fmt.Fprintf(out, "chaos: faulty fleet run (schedule %s)\n", report.Fingerprint)
	faultyJobs, reg, err := m.runChaosFleet(ctx, nameOrPath, filepath.Join(base, "faulty"), &plan, opts)
	if err != nil {
		return nil, fmt.Errorf("core: chaos run lost jobs under fault schedule: %w", err)
	}

	report.Jobs = faultyJobs
	report.Mismatches = compareChaosJobs(cleanJobs, faultyJobs)

	report.Healed = reg.Counter("cas_blobs_healed_total").Value()
	report.WritebackFailures = reg.Counter("cas_writeback_failures_total").Value()
	report.WorkerQuarantines = reg.Counter("remote_worker_quarantines_total").Value()
	report.QuarantinedNow = reg.Gauge("remote_workers_quarantined").Value()
	report.Steals = reg.Counter("remote_steals_total").Value()
	report.LeaseExpiries = reg.Counter("remote_lease_expiries_total").Value()
	report.RateLimited = reg.Counter("cas_remote_rate_limited_total").Value()
	report.Throttled = reg.Counter("serve_throttled_total").Value()
	report.HTTPFaults = reg.Counter("chaos_http_faults_total").Value()
	report.StoreFaults = reg.Counter("chaos_store_flips_total").Value() +
		reg.Counter("chaos_store_torn_writes_total").Value() +
		reg.Counter("chaos_store_nospace_total").Value()
	report.BreakerState = reg.Gauge("cas_remote_breaker_state").Value()

	for _, j := range report.Jobs {
		fmt.Fprintf(out, "chaos: job %-24s cycles=%d exit=%d console=%.16s\n", j.Job, j.Cycles, j.Exit, j.ConsoleDigest)
	}
	for _, line := range []struct {
		name  string
		value float64
	}{
		{"chaos_http_faults_total", float64(report.HTTPFaults)},
		{"chaos_store_faults_total", float64(report.StoreFaults)},
		{"cas_blobs_healed_total", float64(report.Healed)},
		{"cas_writeback_failures_total", float64(report.WritebackFailures)},
		{"cas_remote_rate_limited_total", float64(report.RateLimited)},
		{"cas_remote_breaker_state", report.BreakerState},
		{"serve_throttled_total", float64(report.Throttled)},
		{"remote_worker_quarantines_total", float64(report.WorkerQuarantines)},
		{"remote_workers_quarantined", report.QuarantinedNow},
		{"remote_steals_total", float64(report.Steals)},
		{"remote_lease_expiries_total", float64(report.LeaseExpiries)},
	} {
		fmt.Fprintf(out, "chaos: metric %s %g\n", line.name, line.value)
	}

	if !report.Identical() {
		for _, mm := range report.Mismatches {
			fmt.Fprintf(out, "chaos: MISMATCH %s\n", mm)
		}
		return report, fmt.Errorf("core: chaos run diverged from clean baseline (%d mismatches)", len(report.Mismatches))
	}
	fmt.Fprintf(out, "chaos: PASS — %d job(s) bit-identical under fault schedule %s\n", len(report.Jobs), report.Fingerprint)
	return report, nil
}

// compareChaosJobs diffs the clean baseline against the faulty outcomes.
func compareChaosJobs(clean, faulty []ChaosJob) []string {
	var mismatches []string
	index := map[string]ChaosJob{}
	for _, j := range clean {
		index[j.Job] = j
	}
	if len(clean) != len(faulty) {
		mismatches = append(mismatches, fmt.Sprintf("job count: clean=%d faulty=%d", len(clean), len(faulty)))
	}
	for _, f := range faulty {
		c, ok := index[f.Job]
		if !ok {
			mismatches = append(mismatches, fmt.Sprintf("job %s: missing from clean baseline", f.Job))
			continue
		}
		if f.Cycles != c.Cycles {
			mismatches = append(mismatches, fmt.Sprintf("job %s: cycles %d != %d", f.Job, f.Cycles, c.Cycles))
		}
		if f.Exit != c.Exit {
			mismatches = append(mismatches, fmt.Sprintf("job %s: exit %d != %d", f.Job, f.Exit, c.Exit))
		}
		if f.ConsoleDigest != c.ConsoleDigest {
			mismatches = append(mismatches, fmt.Sprintf("job %s: console %.12s != %.12s", f.Job, f.ConsoleDigest, c.ConsoleDigest))
		}
	}
	return mismatches
}

// runChaosFleet stands up one self-contained loopback fleet — a sandboxed
// Marshal, a shared hub cache server, opts.Workers worker daemons — runs
// the workload across it, and returns the name-sorted per-job outcomes.
// With a nil plan the fleet is clean; with a plan every I/O edge gets its
// own fault-injecting site, every worker store gets tamper faults plus a
// pre-planted corrupt artifact blob (guaranteeing the self-heal path
// runs), worker 0 becomes the flaky host the coordinator must
// quarantine, the last worker stalls its leases (the straggler whose queue
// is stolen), and the hub is rate-limited.
func (m *Marshal) runChaosFleet(ctx context.Context, nameOrPath, dir string, plan *chaos.Plan, opts ChaosOpts) ([]ChaosJob, *obs.Registry, error) {
	reg := obs.NewRegistry()
	sub, err := New(filepath.Join(dir, "work"), m.searchPath...)
	if err != nil {
		return nil, nil, err
	}
	sub.Obs = reg
	sub.Log = m.Log

	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		closers = append(closers, func() { srv.Close() })
		return ln.Addr().String(), nil
	}

	// The shared hub cache every fleet member publishes into. The faulty
	// hub sits behind the same per-client rate limiter `marshal cache
	// serve -rate` uses, so 429 backpressure is part of the schedule.
	hubStore, err := cas.Open(filepath.Join(dir, "hub"))
	if err != nil {
		return nil, nil, err
	}
	var hub http.Handler = casremote.NewServer(hubStore)
	if plan != nil {
		hub = ratelimit.New(ratelimit.Options{RPS: 400, MaxInFlight: 64, Obs: reg}).Middleware(hub)
	}
	hubAddr, err := serve(hub)
	if err != nil {
		return nil, nil, err
	}
	hubURL := "http://" + hubAddr

	sub.RemoteCache = hubURL
	if plan != nil {
		sub.RemoteTransport = plan.Transport("coord-cache", nil, reg)
	}
	cache, err := sub.Cache()
	if err != nil {
		return nil, nil, err
	}
	if plan != nil {
		cache.SetBreakerCooldown(chaosBreakerCooldown)
	}

	// Build first: the artifact digests must be known before the workers
	// exist, so corrupt copies can be planted in their stores. The launch
	// below re-runs the build as a no-op.
	w, err := sub.Loader.Load(nameOrPath)
	if err != nil {
		return nil, nil, err
	}
	if _, err := sub.BuildWorkload(w, BuildOpts{}); err != nil {
		return nil, nil, err
	}
	var targets []Target
	if len(w.Jobs) > 0 {
		targets = Targets(w)[1:]
	} else {
		targets = Targets(w)
	}
	var artifactDigests []string
	for _, tgt := range targets {
		for _, path := range []string{sub.BinPath(tgt.Name), sub.ImgPath(tgt.Name)} {
			if data, err := os.ReadFile(path); err == nil {
				artifactDigests = append(artifactDigests, hostutil.HashBytes(data))
			}
		}
	}

	var addrs []string
	for i := 0; i < opts.Workers; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		storeDir := filepath.Join(wdir, "store")
		store, err := cas.Open(storeDir)
		if err != nil {
			return nil, nil, err
		}
		client := casremote.NewClient(hubURL, 0)
		if plan != nil {
			store.SetTamper(plan.StoreFaults(fmt.Sprintf("worker%d-store", i), reg))
			client.SetTransport(plan.Transport(fmt.Sprintf("worker%d-cache", i), nil, reg))
			for _, digest := range artifactDigests {
				if err := chaos.PlantCorruptBlob(storeDir, digest); err != nil {
					return nil, nil, err
				}
			}
		}
		var runner lremote.Runner = &lremote.ArtifactRunner{
			Store:   store,
			Remote:  client,
			CkptDir: filepath.Join(wdir, "ckpt"),
			Obs:     reg,
		}
		if plan != nil && i == opts.Workers-1 {
			runner = &slowRunner{inner: runner, delay: opts.SlowJobDelay}
		}
		worker := lremote.NewWorker(lremote.WorkerConfig{Runner: runner, Slots: 1, Obs: reg})
		closers = append(closers, worker.Close)
		addr, err := serve(worker)
		if err != nil {
			return nil, nil, err
		}
		addrs = append(addrs, addr)
	}

	lopts := LaunchOpts{
		Workers:    addrs,
		WorkerPoll: chaosWorkerPoll,
		JobTimeout: opts.JobTimeout,
		Retries:    3,
		Context:    ctx,
	}
	if plan != nil {
		// Worker 0 is the error-prone machine: an extra 95% of the
		// coordinator's requests to it drop, which is what the health
		// scorer must quarantine. The flaky map is injected after the
		// fingerprint is taken — listener ports vary run to run, the
		// schedule itself does not.
		flaky := *plan
		flaky.FlakyHosts = map[string]uint32{addrs[0]: 950}
		lopts.WorkerTransport = flaky.Transport("coord-worker", nil, reg)
	}

	results, err := sub.Launch(nameOrPath, lopts)
	if err != nil {
		return nil, reg, err
	}
	if len(results) != len(targets) {
		return nil, reg, fmt.Errorf("core: chaos fleet lost jobs: %d of %d results", len(results), len(targets))
	}
	jobs := make([]ChaosJob, 0, len(results))
	for _, r := range results {
		console, err := os.ReadFile(r.Uartlog)
		if err != nil {
			return nil, reg, fmt.Errorf("core: chaos fleet job %s has no console: %w", r.Target, err)
		}
		jobs = append(jobs, ChaosJob{
			Job:           r.Target,
			Cycles:        r.Cycles,
			Exit:          r.ExitCode,
			ConsoleDigest: hostutil.HashBytes(console),
		})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Job < jobs[j].Job })
	return jobs, reg, nil
}

// slowRunner stalls every lease before executing it — the chaos fleet's
// straggler, whose still-queued leases idle workers must steal. The stall
// honors the attempt context, so worker shutdown isn't delayed.
type slowRunner struct {
	inner lremote.Runner
	delay time.Duration
}

func (s *slowRunner) Run(ctx context.Context, spec lremote.JobSpec, emit func(lremote.Event)) (*lremote.RunOutput, error) {
	if err := hostutil.SleepCtx(ctx, s.delay); err != nil {
		return nil, err
	}
	return s.inner.Run(ctx, spec, emit)
}
