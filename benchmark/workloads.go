package main

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"firemarshal"
	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/isa"
	lremote "firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/funcsim"
)

// workload is one benchmark scenario. setup generates its inputs and
// starts its servers (timed as setup_s); run is the timed scenario;
// reference, where present, produces the facts an unpinned seed's run
// must reproduce (fleet = local, resumed = uninterrupted).
type workload struct {
	name      string
	why       string
	setup     func(e *env) error
	run       func(e *env, rec *recorder, root *spanRef, o *outcome)
	reference func(e *env) (facts, error)
	// nativeRefs marks the workloads whose outputs the program's own test
	// commands compare, so their goldens carry a refs tree.
	nativeRefs bool
}

var workloads = []workload{
	{
		name:  "func_launch",
		why:   "the paper's development loop (spec, build, launch, collect, compare): functional sim does over 80% of the work",
		setup: func(e *env) error { return e.writeJobsWorkload("func_launch", e.sz.funcLaunchInstrs, allPrograms()) },
		run:   runFuncLaunch,

		nativeRefs: true,
	},
	{
		name:  "rtl_eval",
		why:   "the paper's evaluation step (install, cycle-exact run, verify): rtlsim does nearly all the work, the functional tiers none",
		setup: func(e *env) error { return e.writeJobsWorkload("rtl_eval", e.sz.rtlEvalInstrs, allPrograms()) },
		run:   runRTLEval,

		nativeRefs: true,
	},
	{
		name:  "build_churn",
		why:   "no simulation: spec, dag, builders and the CAS do all the work, as publishes beside restores, local and remote",
		setup: setupBuildChurn,
		run:   runBuildChurn,
	},
	{
		name:      "fleet_short_jobs",
		why:       "many short jobs on a two-worker loopback fleet: lease/poll protocol, artifact transfer and per-job boot dominate",
		setup:     setupFleet,
		run:       runFleet,
		reference: func(e *env) (facts, error) { return localReference(e, "fleet_short_jobs", "ref-work") },
	},
	{
		name:      "ckpt_resume",
		why:       "kill a checkpointing run and resume it: the same sim and CAS used with clamped chunks and thousands of 4 KiB pages",
		setup:     setupCkptResume,
		run:       runCkptResume,
		reference: referenceCkptResume,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// allPrograms is one job per program: the ten shapes, then the four mixes.
func allPrograms() []jobDef {
	jobs := make([]jobDef, len(programs))
	for i, p := range programs {
		jobs[i] = jobDef{name: p.name, prog: p}
	}
	return jobs
}

// ---- func_launch ----

func runFuncLaunch(e *env, rec *recorder, root *spanRef, o *outcome) {
	m, err := e.marshal("work")
	if !o.call("New", err) {
		return
	}
	sp := rec.begin(root, "core", "Marshal.Test")
	results, err := m.Test("func_launch", firemarshal.TestOpts{Jobs: parallelism})
	sp.end()
	addPoolSpans(rec, sp, m.LastLaunch, "sim")
	launcherMetrics(o, m.LastLaunch)
	if !o.call("Marshal.Test", err) {
		return
	}
	var runs []*firemarshal.RunResult
	for _, r := range results {
		runs = append(runs, r.Run)
		job := strings.TrimPrefix(r.Target, "func_launch-")
		o.invariant("job."+job+".refs_match", r.Passed)
	}
	o.launchFacts("func_launch", runs, e.jobs)
	o.facts["instrs"] = fmt.Sprint(e.reg.Counter("sim_funcsim_instrs_total").Value())
}

// ---- rtl_eval ----

func runRTLEval(e *env, rec *recorder, root *spanRef, o *outcome) {
	m, err := e.marshal("work")
	if !o.call("New", err) {
		return
	}
	sp := rec.begin(root, "core", "Marshal.Build")
	_, err = m.Build("rtl_eval", firemarshal.BuildOpts{Jobs: parallelism})
	sp.end()
	if !o.call("Marshal.Build", err) {
		return
	}

	t0 := time.Now()
	sp = rec.begin(root, "install", "Marshal.Install")
	dir, err := m.Install("rtl_eval", firemarshal.InstallOpts{})
	var cfg *firemarshal.InstalledConfig
	if err == nil {
		cfg, err = firemarshal.LoadInstalled(dir)
	}
	sp.end()
	o.layer["install.install_ms"] = millis(time.Since(t0))
	if !o.call("Marshal.Install", err) {
		return
	}

	out := e.path("sim-out")
	t0 = time.Now()
	sp = rec.begin(root, "fsrun", "RunInstalled")
	res, err := firemarshal.RunInstalled(cfg, firemarshal.SimOptions{
		RTL:       firemarshal.DefaultRTLConfig(),
		Jobs:      parallelism,
		OutputDir: out,
		Obs:       e.reg,
	})
	sp.end()
	o.layer["fsrun.run_s"] = time.Since(t0).Seconds()
	if res != nil {
		addPoolSpans(rec, sp, res.Summary, "rtlsim")
		launcherMetrics(o, res.Summary)
	}
	if !o.call("RunInstalled", err) {
		return
	}

	t0 = time.Now()
	sp = rec.begin(root, "runtest", "VerifyInstalled")
	err = firemarshal.VerifyInstalled(cfg, out)
	sp.end()
	o.layer["runtest.verify_ms"] = millis(time.Since(t0))
	o.call("VerifyInstalled", err)

	got := map[string]bool{}
	var instrs uint64
	for _, j := range res.Jobs {
		job := strings.TrimPrefix(j.Name, "rtl_eval-")
		got[job] = true
		o.jobFacts(job, j.ExitCode, j.Cycles, j.OutputDir)
		o.facts["job."+job+".instrs"] = fmt.Sprint(j.Stats.Instrs)
		instrs += j.Stats.Instrs
	}
	for _, j := range e.jobs {
		if !got[j.name] {
			o.invariant("job."+j.name+".ok", false)
		}
	}
	o.facts["instrs"] = fmt.Sprint(instrs)
}

// ---- build_churn ----

const churnWorkload = "churn"

// setupBuildChurn writes a 4-deep inheritance chain (c1 <- c2 <- c3 <-
// churn) whose root overlay carries the suite's guest programs beside a
// multi-MiB pseudo-random payload, a kernel fragment at each level and
// eight sibling leaf jobs that each name one program, and starts the
// loopback `cache serve` over what will become the shared local cache.
func setupBuildChurn(e *env) error {
	if err := e.writePrograms(e.sz.funcLaunchInstrs, allPrograms()); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < e.sz.churnFiles; i++ {
		payload := make([]byte, e.sz.churnFileBytes)
		rng.Read(payload)
		if err := writeFile(filepath.Join(e.wlDir, "overlay", "data", fmt.Sprintf("blob%d.bin", i)), payload, 0o644); err != nil {
			return err
		}
	}
	files := map[string]string{
		"c1.kfrag": "CONFIG_PFA=y\n",
		"c1.json":  `{"name":"c1","base":"br-base","linux":{"config":"c1.kfrag"},"overlay":"overlay","command":"echo c1"}`,
		"c2.kfrag": "CONFIG_ICENET=y\n",
		"c2.json":  `{"name":"c2","base":"c1","linux":{"config":"c2.kfrag"},"command":"echo c2"}`,
		"c3.kfrag": "CONFIG_DEBUG_INFO=y\n",
		"c3.json":  `{"name":"c3","base":"c2","linux":{"config":"c3.kfrag"},"command":"echo c3"}`,
	}
	for name, content := range files {
		if err := writeFile(filepath.Join(e.wlDir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	if err := writeChurnLeaves(e, ""); err != nil {
		return err
	}
	store, err := cas.Open(e.path("shared-cache"))
	if err != nil {
		return err
	}
	e.cacheURL = e.serve(casremote.NewServer(store))
	return nil
}

// writeChurnLeaves writes the leaf workload: leaf i runs program i.
// leaf0Args is what the leaf-command edit changes.
func writeChurnLeaves(e *env, leaf0Args string) error {
	var jobs []string
	for i := 0; i < churnLeaves; i++ {
		cmd := "/bench/" + programs[i].name
		if i == 0 {
			cmd += leaf0Args
		}
		jobs = append(jobs, fmt.Sprintf(`{"name":"leaf%d","command":%q}`, i, cmd))
	}
	doc := fmt.Sprintf(`{"name":%q,"base":"c3","jobs":[%s]}`, churnWorkload, strings.Join(jobs, ","))
	return writeFile(filepath.Join(e.wlDir, churnWorkload+".json"), []byte(doc), 0o644)
}

func runBuildChurn(e *env, rec *recorder, root *spanRef, o *outcome) {
	// phase builds the workload from one checkout, the way one `marshal
	// build` process would, and records what the dependency tracker did.
	var hits, lookups uint64
	phase := func(name, workDir, cacheDir, remote string) *firemarshal.Marshal {
		m, err := e.marshal(workDir)
		if !o.call("New", err) {
			return nil
		}
		m.CacheDir = e.path(cacheDir)
		m.RemoteCache = remote
		t0 := time.Now()
		sp := rec.begin(root, "core", "Marshal.Build "+name)
		_, err = m.Build(churnWorkload, firemarshal.BuildOpts{Jobs: parallelism})
		sp.end()
		o.layer["core.build_"+name+"_s"] = time.Since(t0).Seconds()
		if !o.call("Marshal.Build "+name, err) {
			return nil
		}
		st := m.LastBuildStats
		o.facts["dag."+name+".executed"] = fmt.Sprint(len(st.Executed))
		o.facts["dag."+name+".restored"] = fmt.Sprint(len(st.Restored))
		o.facts["dag."+name+".skipped"] = fmt.Sprint(len(st.Skipped))
		o.layer["dag.executed_"+name] = float64(len(st.Executed))
		hits += st.Cache.Hits
		lookups += st.Cache.Hits + st.Cache.Misses
		o.layer["cas.bytes_published"] += float64(st.Cache.BytesPublished)
		o.layer["cas.bytes_restored"] += float64(st.Cache.BytesRestored)
		return m
	}
	stat := func(m *firemarshal.Marshal) (executed, restored int) {
		return len(m.LastBuildStats.Executed), len(m.LastBuildStats.Restored)
	}

	a := phase("cold", "checkout-a", "shared-cache", "")
	if a == nil {
		return
	}

	if m := phase("noop", "checkout-a", "shared-cache", ""); m != nil {
		ex, _ := stat(m)
		o.invariant("noop_executes_nothing", ex == 0)
	}

	if !o.call("edit leaf command", writeChurnLeaves(e, " --edited")) {
		return
	}
	if m := phase("leaf_edit", "checkout-a", "shared-cache", ""); m != nil {
		ex, _ := stat(m)
		o.invariant("leaf_edit_rebuilds_less", ex > 0 && ex < len(a.LastBuildStats.Executed))
	}

	edit := writeFile(filepath.Join(e.wlDir, "c2.kfrag"), []byte("CONFIG_ICENET=y\nCONFIG_BENCH_EDIT=y\n"), 0o644)
	if !o.call("edit c2.kfrag", edit) {
		return
	}
	final := phase("chain_edit", "checkout-a", "shared-cache", "")
	if final == nil {
		return
	}
	ex, _ := stat(final)
	o.invariant("chain_edit_rebuilds", ex > 0)

	b := phase("warm_restore", "checkout-b", "shared-cache", "")
	if b != nil {
		ex, re := stat(b)
		o.layer["dag.restored_warm"] = float64(re)
		o.invariant("warm_restore_executes_nothing", ex == 0 && re > 0)
	}
	c := phase("remote_hit", "checkout-c", "fresh-cache", e.cacheURL)
	if c != nil {
		ex, re := stat(c)
		o.invariant("remote_hit_executes_nothing", ex == 0 && re > 0)
	}
	// Digesting a few hundred MiB of images is the harness's work, not the
	// program's: it waits until the clock has stopped.
	o.after = append(o.after, func() {
		artifacts := churnArtifacts(final)
		for name, sum := range artifacts {
			o.facts["artifact."+name] = sum
		}
		if b != nil {
			o.invariant("warm_restore_identical", sameArtifacts(artifacts, churnArtifacts(b)))
		}
		if c != nil {
			o.invariant("remote_hit_identical", sameArtifacts(artifacts, churnArtifacts(c)))
		}
	})
	if lookups > 0 {
		o.layer["cas.action_hit_ratio"] = float64(hits) / float64(lookups)
	}
}

// churnArtifacts digests every leaf's boot binary and disk image.
func churnArtifacts(m *firemarshal.Marshal) map[string]string {
	out := map[string]string{}
	for i := 0; i < churnLeaves; i++ {
		target := fmt.Sprintf("%s-leaf%d", churnWorkload, i)
		for name, path := range map[string]string{target + ".img": m.ImgPath(target), target + "-bin": m.BinPath(target)} {
			if sum, err := hostutil.HashFile(path); err == nil {
				out[name] = sum
			}
		}
	}
	return out
}

func sameArtifacts(a, b map[string]string) bool {
	return len(a) > 0 && maps.Equal(a, b)
}

// ---- fleet_short_jobs ----

// spanRunner is the Runner each worker daemon is given: the production
// ArtifactRunner, with the start and end of every job execution noted
// for the traced run's per-job spans.
type spanRunner struct {
	inner lremote.Runner
	e     *env
}

func (s *spanRunner) Run(ctx context.Context, spec lremote.JobSpec, emit func(lremote.Event)) (*lremote.RunOutput, error) {
	start := time.Now()
	out, err := s.inner.Run(ctx, spec, emit)
	s.e.mu.Lock()
	s.e.jobTimes = append(s.e.jobTimes, jobTime{name: spec.Name, start: start, end: time.Now()})
	s.e.mu.Unlock()
	return out, err
}

// setupFleet generates the short-job workload and starts, on loopback,
// the shared cache server and two single-slot worker daemons.
func setupFleet(e *env) error {
	jobs := make([]jobDef, e.sz.fleetJobs)
	for i := range jobs {
		p := programs[i%len(programs)]
		jobs[i] = jobDef{name: fmt.Sprintf("j%02d_%s", i, p.name), prog: p}
	}
	if err := e.writeJobsWorkload("fleet_short_jobs", e.sz.fleetInstrs, jobs); err != nil {
		return err
	}
	hub, err := cas.Open(e.path("hub"))
	if err != nil {
		return err
	}
	e.hubURL = e.serve(casremote.NewServer(hub))
	for i := 0; i < parallelism; i++ {
		wdir := e.path(fmt.Sprintf("worker%d", i))
		store, err := cas.Open(filepath.Join(wdir, "store"))
		if err != nil {
			return err
		}
		runner := &lremote.ArtifactRunner{
			Store:   store,
			Remote:  casremote.NewClient(e.hubURL, 0),
			CkptDir: filepath.Join(wdir, "ckpt"),
			Obs:     e.reg,
		}
		worker := lremote.NewWorker(lremote.WorkerConfig{Runner: &spanRunner{inner: runner, e: e}, Slots: 1, Obs: e.reg})
		e.closers = append(e.closers, worker.Close)
		e.workers = append(e.workers, strings.TrimPrefix(e.serve(worker), "http://"))
	}
	return nil
}

func runFleet(e *env, rec *recorder, root *spanRef, o *outcome) {
	m, err := e.marshal("work")
	if !o.call("New", err) {
		return
	}
	m.RemoteCache = e.hubURL
	sp := rec.begin(root, "core", "Marshal.Launch")
	runs, err := m.Launch("fleet_short_jobs", firemarshal.LaunchOpts{Workers: e.workers})
	sp.end()
	if sum := m.LastLaunch; sum != nil {
		// The fleet ran from the end of the build to the end of the call;
		// its jobs are placed where the workers actually ran them.
		var fleet *spanRef
		if rec != nil {
			_, callEnd := sp.bounds()
			fleet = rec.add(sp, "launcher_remote", "fleet", callEnd.Add(-sum.Wall), callEnd)
		}
		var busy time.Duration
		jobSpans := map[string]*spanRef{}
		e.mu.Lock()
		for _, jt := range e.jobTimes {
			jobSpans[jt.name] = rec.add(fleet, "launcher_remote", "ArtifactRunner.Run job:"+jt.name, jt.start, jt.end)
			busy += jt.end.Sub(jt.start)
		}
		e.mu.Unlock()
		if rec != nil {
			o.after = append(o.after, func() { replayFleetSim(e, rec, jobSpans) })
		}
		if n := len(sum.Jobs); n > 0 {
			o.layer["launcher_remote.job_overhead_ms"] = millis(sum.Wall*parallelism-busy) / float64(n)
		}
		launcherMetrics(o, sum)
	}
	o.layer["launcher_remote.leases"] = float64(e.reg.Counter("remote_leases_total").Value())
	o.layer["launcher_remote.steals"] = float64(e.reg.Counter("remote_steals_total").Value())
	o.layer["launcher_remote.lease_expiries"] = float64(e.reg.Counter("remote_lease_expiries_total").Value())
	if !o.call("Marshal.Launch", err) {
		return
	}
	o.launchFacts("fleet_short_jobs", runs, e.jobs)
	o.facts["instrs"] = fmt.Sprint(e.reg.Counter("sim_funcsim_instrs_total").Value())
}

// replayFleetSim attributes simulation time inside the fleet's job spans.
// A worker's job is fetch, boot, simulate, publish, and only the whole is
// visible from outside; so once the clock has stopped, each distinct
// program is executed once more on the same functional platform the
// worker used, and that time becomes a "sim" child at the end of every job
// span that ran the program.
func replayFleetSim(e *env, rec *recorder, jobSpans map[string]*spanRef) {
	replay := map[string]time.Duration{}
	for _, j := range e.jobs {
		d, ok := replay[j.prog.name]
		if !ok {
			bin := "/bench/" + j.prog.name
			data, err := os.ReadFile(filepath.Join(e.wlDir, "overlay", filepath.FromSlash(bin)))
			if err != nil {
				continue
			}
			exe, err := isa.DecodeExecutable(data)
			if err != nil {
				continue
			}
			t0 := time.Now()
			if _, err := funcsim.New(funcsim.Config{}).Exec(exe, io.Discard, bin); err != nil {
				continue
			}
			d = time.Since(t0)
			replay[j.prog.name] = d
		}
		if sp := jobSpans["fleet_short_jobs-"+j.name]; sp != nil {
			_, end := sp.bounds()
			rec.add(sp, "sim", "funcsim.Exec (replayed) "+j.prog.name, end.Add(-d), end)
		}
	}
}

// localReference launches the workload on local slots from a fresh
// checkout: what a fleet run, or a resumed one, must reproduce.
func localReference(e *env, name, workDir string) (facts, error) {
	m, err := firemarshal.New(e.path(workDir), e.wlDir)
	if err != nil {
		return nil, err
	}
	m.Obs = obs.NewRegistry()
	runs, err := m.Launch(name, firemarshal.LaunchOpts{Jobs: parallelism})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.launchFacts(name, runs, e.jobs)
	o.facts["instrs"] = fmt.Sprint(m.Obs.Counter("sim_funcsim_instrs_total").Value())
	return o.facts, nil
}

// ---- ckpt_resume ----

func setupCkptResume(e *env) error {
	var jobs []jobDef
	for _, name := range []string{"loop_heavy", "store_fill", "mem_chase", "branchy"} {
		for _, p := range programs {
			if p.name == name {
				jobs = append(jobs, jobDef{name: name, prog: p})
			}
		}
	}
	return e.writeJobsWorkload("ckpt_resume", e.sz.ckptInstrs, jobs)
}

func runCkptResume(e *env, rec *recorder, root *spanRef, o *outcome) {
	m, err := e.marshal("work")
	if !o.call("New", err) {
		return
	}
	last := "ckpt_resume-" + e.jobs[len(e.jobs)-1].name
	ptrPath := checkpoint.PointerPath(m.CkptDir(), last)

	// The kill: cancel the launch once the last-declared job's checkpoint
	// pointer shows it far enough in, as an operator's second Ctrl-C would.
	ctx, cancel := context.WithCancel(context.Background())
	watcherDone := make(chan struct{})
	launchDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-launchDone:
				return
			case <-tick.C:
				if ptr, err := checkpoint.LoadPointer(ptrPath); err == nil && ptr.Instret >= e.sz.ckptCancelAt {
					cancel()
					return
				}
			}
		}
	}()
	t0 := time.Now()
	sp := rec.begin(root, "core", "Marshal.Launch interrupted")
	_, err = m.Launch("ckpt_resume", firemarshal.LaunchOpts{Jobs: parallelism, CkptEvery: e.sz.ckptEvery, Context: ctx})
	sp.end()
	close(launchDone)
	<-watcherDone
	interrupted := ctx.Err() != nil
	cancel()
	o.layer["ckpt_resume.interrupted_s"] = time.Since(t0).Seconds()
	addPoolSpans(rec, sp, m.LastLaunch, "sim")
	o.attempted++
	if !interrupted || err == nil {
		o.fail("the launch was not interrupted (finished before %s reached %d instructions): %v", last, e.sz.ckptCancelAt, err)
		return
	}

	m, err = e.marshal("work")
	if !o.call("New", err) {
		return
	}
	t0 = time.Now()
	sp = rec.begin(root, "core", "Marshal.Launch resume")
	runs, err := m.Launch("ckpt_resume", firemarshal.LaunchOpts{Jobs: parallelism, CkptEvery: e.sz.ckptEvery, Resume: true})
	sp.end()
	o.layer["ckpt_resume.resumed_s"] = time.Since(t0).Seconds()
	addPoolSpans(rec, sp, m.LastLaunch, "sim")
	launcherMetrics(o, m.LastLaunch)
	o.layer["checkpoint.snapshots"] = float64(e.reg.Counter("checkpoint_writes_total").Value())
	if !o.call("Marshal.Launch resume", err) {
		return
	}
	o.launchFacts("ckpt_resume", runs, e.jobs)
	resumed := false
	for _, j := range m.LastLaunch.Jobs {
		resumed = resumed || j.Resumed
	}
	o.invariant("resumed_from_checkpoint", resumed && e.reg.Counter("checkpoint_restores_total").Value() > 0)
	o.facts["aux.simulated_instrs"] = fmt.Sprint(e.reg.Counter("sim_funcsim_instrs_total").Value())
}

// referenceCkptResume is the uninterrupted run a resumed one must equal;
// its instruction total is what rework is measured against.
func referenceCkptResume(e *env) (facts, error) {
	f, err := localReference(e, "ckpt_resume", "ref-work")
	if err != nil {
		return nil, err
	}
	f["aux.uninterrupted_instrs"] = f["instrs"]
	delete(f, "instrs")
	return f, nil
}
