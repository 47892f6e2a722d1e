package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"firemarshal"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/isa"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
	"firemarshal/internal/runtest"
)

// facts are the exact, deterministic results of one run — exit codes,
// cycle and instruction counts, output lines, artifact digests, dag
// counts — keyed by name. They are compared for equality against the
// pinned golden (or, for an unpinned seed, a reference run); a mismatch is
// a failed operation, never a number. Keys starting with "inv." are
// invariants that must read "true" whatever the seed.
type facts map[string]string

// jobDef is one job of a generated multi-job workload.
type jobDef struct {
	name string
	prog program
}

// env is the world of one run: fresh scratch directories, the generated
// inputs, loopback servers, and the metrics registry the run reports into.
type env struct {
	sz   sizes
	seed int64
	// dir is this run's scratch root; wlDir holds the generated specs.
	dir   string
	wlDir string
	// reg is handed to every Marshal, worker and runner of the run and is
	// only read afterwards.
	reg *obs.Registry
	// golden is the workload's pinned golden tree, nil for an unpinned
	// seed or scale.
	golden fs.FS
	// nativeRefs is the workload's: its spec names a testing.refDir.
	nativeRefs bool
	jobs       []jobDef

	closers []func()

	// Fleet: the shared cache server and the worker daemons.
	hubURL  string
	workers []string
	// Build churn: the loopback `cache serve` over the shared local cache.
	cacheURL string

	mu       sync.Mutex
	jobTimes []jobTime
}

// jobTime is one worker-side job execution observed by spanRunner.
type jobTime struct {
	name       string
	start, end time.Time
}

func (e *env) path(elem ...string) string {
	return filepath.Join(append([]string{e.dir}, elem...)...)
}

// serve starts a loopback HTTP server that lives until the run's teardown.
func (e *env) serve(h http.Handler) string {
	srv := httptest.NewServer(h)
	e.closers = append(e.closers, srv.Close)
	return srv.URL
}

// close stops the run's servers and removes its scratch tree.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
	os.RemoveAll(e.dir)
}

// marshal returns a workload manager over a work directory of this run,
// as a fresh `marshal` process would construct one.
func (e *env) marshal(workDir string) (*firemarshal.Marshal, error) {
	m, err := firemarshal.New(e.path(workDir), e.wlDir)
	if err != nil {
		return nil, err
	}
	m.Obs = e.reg
	return m, nil
}

func writeFile(path string, data []byte, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, mode)
}

// writePrograms assembles every distinct program of jobs at the given
// size into the overlay's /bench directory.
func (e *env) writePrograms(instrs float64, jobs []jobDef) error {
	done := map[string]bool{}
	for _, j := range jobs {
		if done[j.prog.name] {
			continue
		}
		done[j.prog.name] = true
		exe, err := j.prog.assemble(instrs, e.seed)
		if err != nil {
			return err
		}
		bin := filepath.Join(e.wlDir, "overlay", "bench", j.prog.name)
		if err := writeFile(bin, isa.EncodeExecutable(exe), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// writeJobsWorkload generates a multi-job workload: every distinct
// program assembled at the given size into one shared overlay, one job
// per jobDef running its program with the result line collected as an
// output, and, for the workloads the program's own test commands check,
// the reference tree they compare against.
func (e *env) writeJobsWorkload(name string, instrs float64, jobs []jobDef) error {
	e.jobs = jobs
	if err := e.writePrograms(instrs, jobs); err != nil {
		return err
	}
	type jobSpec struct {
		Name    string `json:"name"`
		Command string `json:"command"`
	}
	doc := struct {
		Name    string            `json:"name"`
		Base    string            `json:"base"`
		Overlay string            `json:"overlay"`
		Outputs []string          `json:"outputs"`
		Testing map[string]string `json:"testing,omitempty"`
		Jobs    []jobSpec         `json:"jobs"`
	}{Name: name, Base: "br-base", Overlay: "overlay", Outputs: []string{"/output"}}
	if e.nativeRefs {
		doc.Testing = map[string]string{"refDir": "refs"}
	}
	for _, j := range jobs {
		doc.Jobs = append(doc.Jobs, jobSpec{Name: j.name, Command: "/bench/" + j.prog.name + " > /output/result.csv"})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(e.wlDir, name+".json"), data, 0o644); err != nil {
		return err
	}
	if e.nativeRefs {
		return e.writeRefs()
	}
	return nil
}

// writeRefs materialises the reference tree next to the generated spec:
// the pinned golden refs when the seed has them, otherwise a
// self-consistency tree that only demands each job's result line.
func (e *env) writeRefs() error {
	refs := filepath.Join(e.wlDir, "refs")
	if e.golden != nil {
		if sub, err := fs.Sub(e.golden, "refs"); err == nil {
			if _, err := fs.Stat(sub, "."); err == nil {
				return copyFS(refs, sub)
			}
		}
	}
	for _, j := range e.jobs {
		ref := filepath.Join(refs, j.name, "output", "result.csv")
		if err := writeFile(ref, []byte(j.prog.name+",\n"), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func copyFS(dst string, src fs.FS) error {
	return fs.WalkDir(src, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := fs.ReadFile(src, p)
		if err != nil {
			return err
		}
		return writeFile(filepath.Join(dst, filepath.FromSlash(p)), data, 0o644)
	})
}

// outcome accumulates what one scenario did: the API calls it made and
// which of them failed, the facts it observed, and the per-layer numbers
// only the scenario can supply.
type outcome struct {
	attempted, failed int
	errs              []string
	facts             facts
	layer             map[string]float64
	// refs are the reference files a golden update pins for the program's
	// own test commands: each job's cleaned serial log and result line.
	refs map[string][]byte
	// after holds work the scenario leaves for when the clock has stopped:
	// digesting artifacts, replaying programs for attribution.
	after []func()
}

func newOutcome() *outcome {
	return &outcome{facts: facts{}, layer: map[string]float64{}, refs: map[string][]byte{}}
}

// call counts one call into the program and whether it failed.
func (o *outcome) call(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.fail("%s: %v", what, err)
		return false
	}
	return true
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// invariant records a seed-independent property of the run.
func (o *outcome) invariant(name string, ok bool) {
	o.facts["inv."+name] = fmt.Sprint(ok)
}

var resultLine = regexp.MustCompile(`^[a-z_]+,\d+,-?\d+$`)

// jobFacts records one finished job: exit code, simulated cycles, the
// guest's "<name>,<cycles>,<checksum>" line and the cleaned serial log.
func (o *outcome) jobFacts(job string, exit int64, cycles uint64, outputDir string) {
	k := "job." + job + "."
	o.facts[k+"exit"] = fmt.Sprint(exit)
	o.facts[k+"cycles"] = fmt.Sprint(cycles)
	result, _ := os.ReadFile(filepath.Join(outputDir, "output", "result.csv"))
	line := strings.TrimSpace(string(result))
	o.facts[k+"result"] = line
	uart, _ := os.ReadFile(filepath.Join(outputDir, "uartlog"))
	clean := []byte(runtest.CleanOutput(string(uart)))
	o.facts[k+"uartlog"] = hostutil.HashBytes(clean)
	o.refs[job+"/uartlog"] = clean
	o.refs[job+"/output/result.csv"] = result
	o.invariant("job."+job+".ok", exit == 0 && resultLine.MatchString(line) && len(uart) > 0)
}

// launchFacts records every job of a functional launch.
func (o *outcome) launchFacts(workload string, runs []*firemarshal.RunResult, want []jobDef) {
	got := map[string]bool{}
	for _, r := range runs {
		job := strings.TrimPrefix(r.Target, workload+"-")
		got[job] = true
		o.jobFacts(job, r.ExitCode, r.Cycles, r.OutputDir)
	}
	for _, j := range want {
		if !got[j.name] {
			o.invariant("job."+j.name+".ok", false)
		}
	}
}

// check compares the outcome's facts with what they must equal: every
// invariant "true", and every pinned (or reference-run) fact identical.
// Keys under "aux." carry reference data and are not compared.
func (o *outcome) check(want facts, source string) {
	for _, k := range sortedKeys(o.facts) {
		if strings.HasPrefix(k, "inv.") {
			o.attempted++
			if o.facts[k] != "true" {
				o.fail("invariant %s does not hold", strings.TrimPrefix(k, "inv."))
			}
		}
	}
	for _, k := range sortedKeys(want) {
		if strings.HasPrefix(k, "inv.") || strings.HasPrefix(k, "aux.") {
			continue
		}
		o.attempted++
		if got, ok := o.facts[k]; !ok {
			o.fail("%s: missing (%s has %q)", k, source, want[k])
		} else if got != want[k] {
			o.fail("%s = %q, %s has %q", k, got, source, want[k])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// addPoolSpans derives the launcher's spans from the Summary an API call
// returned: one span for the pool (it ended when the call did, and lasted
// Summary.Wall) and, inside it, one per job from its queue wait and run
// wall. jobLayer is the simulator the jobs ran on.
func addPoolSpans(rec *recorder, call *spanRef, sum *launcher.Summary, jobLayer string) {
	if rec == nil || sum == nil {
		return
	}
	_, callEnd := call.bounds()
	poolStart := callEnd.Add(-sum.Wall)
	pool := rec.add(call, "launcher", "pool", poolStart, callEnd)
	for _, j := range sum.Jobs {
		if j.Wall == 0 {
			continue
		}
		start := poolStart.Add(j.QueueWait)
		rec.add(pool, jobLayer, "job:"+j.Name, start, start.Add(j.Wall))
	}
}

// launcherMetrics reads the scheduling numbers of a finished launch.
func launcherMetrics(o *outcome, sum *launcher.Summary) {
	if sum == nil {
		return
	}
	var walls, waits []float64
	for _, j := range sum.Jobs {
		walls = append(walls, millis(j.Wall))
		waits = append(waits, millis(j.QueueWait))
		o.layer["launcher.attempts"] += float64(j.Attempts)
		if j.Attempts > 1 {
			o.layer["launcher.retries"] += float64(j.Attempts - 1)
		}
	}
	o.layer["launcher.job_wall_ms_p50"] = median(walls)
	o.layer["launcher.queue_wait_ms_p50"] = median(waits)
}
