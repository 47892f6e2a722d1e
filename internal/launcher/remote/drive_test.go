package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"firemarshal/internal/asm"
	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/firmware"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/isa"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
)

// bareBin writes a bare-metal boot binary that exits 0 and returns its path.
func bareBin(t *testing.T) string {
	t.Helper()
	exe, err := asm.Assemble("_start:\n li a0, 0\n li a7, 93\n ecall\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := firmware.BuildBare(isa.EncodeExecutable(exe)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "job-bin")
	if err := os.WriteFile(path, bin, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWorkerClientRetryAfterAbortsOnCancel: a cancelled coordinator must
// not sit out a worker's Retry-After hint (the CAS client's twin of this
// test is TestRetryAfterWaitAbortsOnCancel; both run through
// hostutil.Retry on the real timer).
func TestWorkerClientRetryAfterAbortsOnCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	t.Cleanup(srv.Close)
	c := NewWorkerClient(srv.Listener.Addr().String(), time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	begin := time.Now()
	_, err := c.Status(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Status error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the client slept through the Retry-After hint", elapsed)
	}
}

// TestWriteDirRejectsEscapingPaths: output keys come off the wire, so the
// sink refuses any that would land outside the run directory — before
// writing anything — and still accepts nested ones.
func TestWriteDirRejectsEscapingPaths(t *testing.T) {
	for _, rel := range []string{"../escape", "/abs", "a/../../escape"} {
		root := t.TempDir()
		dir := filepath.Join(root, "run")
		f := &Files{Console: []byte("log"), Outputs: map[string][]byte{rel: []byte("x"), "ok.txt": []byte("y")}}
		if err := f.WriteDir(dir); err == nil || !strings.Contains(err.Error(), "escapes") {
			t.Errorf("WriteDir with output %q: err = %v, want an escape error", rel, err)
		}
		if ents, _ := os.ReadDir(root); len(ents) != 0 {
			t.Errorf("WriteDir with output %q wrote %d entries before failing", rel, len(ents))
		}
	}
	dir := t.TempDir()
	f := &Files{Console: []byte("log"), Outputs: map[string][]byte{"output/result.csv": []byte("1,2")}}
	if err := f.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "output", "result.csv")); err != nil || string(got) != "1,2" {
		t.Errorf("nested output = %q, %v", got, err)
	}
}

// TestFleetJobFailsOnEscapingOutput drives a fleet whose worker reports an
// output key climbing out of the run directory: the job must end failed
// with a clear error and nothing written outside, while a sibling with a
// legitimate nested key lands normally.
func TestFleetJobFailsOnEscapingOutput(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv := httptest.NewServer(casremote.NewServer(store))
	t.Cleanup(cacheSrv.Close)
	rem := casremote.NewClient(cacheSrv.URL, 0)

	keys := map[string]string{"evil": "../../escape", "good": "output/result.csv"}
	addrs, _, _ := fleet(t, 1, func(int) WorkerConfig {
		return WorkerConfig{Obs: obs.NewRegistry(), Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
			console, err := PutBlob(ctx, rem, []byte("console of "+spec.Name))
			if err != nil {
				return nil, err
			}
			out, err := PutBlob(ctx, rem, []byte("payload"))
			if err != nil {
				return nil, err
			}
			return &RunOutput{Console: console, Outputs: map[string]string{keys[spec.Name]: out}}, nil
		})}
	})

	root := t.TempDir()
	bin := bareBin(t)
	run := Run{
		ManifestPath: filepath.Join(root, "runs", "w.manifest.jsonl"),
		Fleet:        CoordOptions{Workers: addrs, Poll: 5 * time.Millisecond},
		Remote:       rem,
		Obs:          obs.NewRegistry(),
	}
	for _, name := range []string{"evil", "good"} {
		run.Jobs = append(run.Jobs, Job{Name: name, Bin: bin, Sim: "qemu", Dir: filepath.Join(root, "runs", name)})
	}
	results, summary, err := Drive(context.Background(), run)
	if err == nil {
		t.Fatal("Drive succeeded although a job reported an escaping output path")
	}
	if results[0] != nil || results[1] == nil {
		t.Errorf("results = %v, want only the good job's", results)
	}
	if r := summary.Jobs[0]; r.Status != launcher.StatusFailed || !strings.Contains(r.Err, "escapes the run directory") {
		t.Errorf("evil job: status %s err %q, want failed with an escape error", r.Status, r.Err)
	}
	if r := summary.Jobs[1]; r.Status != launcher.StatusOK {
		t.Errorf("good job: status %s err %q", r.Status, r.Err)
	}
	if got, err := os.ReadFile(filepath.Join(root, "runs", "good", "output", "result.csv")); err != nil || string(got) != "payload" {
		t.Errorf("good job's nested output = %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(root, "escape")); err == nil {
		t.Error("escaping output was written outside the run directory")
	}
	if _, err := os.Stat(filepath.Join(root, "runs", "evil")); err == nil {
		t.Error("the failed job left a run directory behind")
	}
	recs, _, err := launcher.ReadManifest(run.ManifestPath)
	if err != nil || len(recs) != 2 || recs[0].Status != launcher.StatusFailed {
		t.Errorf("manifest = %+v, %v; want the evil job recorded failed", recs, err)
	}
}

// TestFleetUploadsEachSharedArtifactOnce: the jobs of one workload share a
// boot binary, and the coordinator uploads a digest once per drive however
// many jobs name it.
func TestFleetUploadsEachSharedArtifactOnce(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bin := bareBin(t)
	binDigest, err := hostutil.HashFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	puts := 0
	inner := casremote.NewServer(store)
	cacheSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/"+binDigest) {
			mu.Lock()
			puts++
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(cacheSrv.Close)
	rem := casremote.NewClient(cacheSrv.URL, 0)

	workerStore, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addrs, _, _ := fleet(t, 1, func(int) WorkerConfig {
		return WorkerConfig{Obs: obs.NewRegistry(), Runner: &ArtifactRunner{Store: workerStore, Remote: rem, Obs: obs.NewRegistry()}}
	})
	root := t.TempDir()
	run := Run{
		ManifestPath: filepath.Join(root, "runs", "w.manifest.jsonl"),
		Fleet:        CoordOptions{Workers: addrs, Poll: 5 * time.Millisecond},
		Remote:       rem,
		Obs:          obs.NewRegistry(),
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		run.Jobs = append(run.Jobs, Job{Name: name, Bin: bin, Sim: "qemu", Dir: filepath.Join(root, "runs", name)})
	}
	results, _, err := Drive(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r == nil || r.ExitCode != 0 {
			t.Errorf("job %d: result %+v, want exit 0", i, r)
		}
	}
	if puts != 1 {
		t.Errorf("the shared boot binary was uploaded %d times for 4 jobs, want once", puts)
	}
}

// TestFleetResumeAfterCancelMidLanding: a fleet drive cancelled while a
// job's files are landing journals that job as neither ok nor failed, and
// the resumed drive carries what landed and runs everything else — each job
// exactly once more, or not at all.
func TestFleetResumeAfterCancelMidLanding(t *testing.T) {
	hub, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv := httptest.NewServer(casremote.NewServer(hub))
	t.Cleanup(cacheSrv.Close)
	rem := casremote.NewClient(cacheSrv.URL, 0)

	var mu sync.Mutex
	runs := map[string]int{}
	addrs, _, _ := fleet(t, 2, func(int) WorkerConfig {
		store, err := cas.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		inner := &ArtifactRunner{Store: store, Remote: rem, Obs: obs.NewRegistry()}
		return WorkerConfig{Obs: obs.NewRegistry(), Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
			mu.Lock()
			runs[spec.Name]++
			mu.Unlock()
			return inner.Run(ctx, spec, emit)
		})}
	})

	bin := bareBin(t)
	root := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	names := []string{"a", "b", "c", "d", "e", "f"}
	drive := func(ctx context.Context, resume bool, post func(name string) error) (*launcher.Summary, error) {
		run := Run{
			ManifestPath: filepath.Join(root, "runs", "w.manifest.jsonl"),
			Resume:       resume,
			Fleet:        CoordOptions{Workers: addrs, Poll: 5 * time.Millisecond},
			Remote:       rem,
			Obs:          obs.NewRegistry(),
		}
		for _, name := range names {
			name := name
			run.Jobs = append(run.Jobs, Job{Name: name, Bin: bin, Sim: "qemu", Dir: filepath.Join(root, "runs", name),
				Post: func() error { return post(name) }})
		}
		_, sum, err := Drive(ctx, run)
		return sum, err
	}

	// First drive: job c's landing is where the coordinator dies.
	sum, _ := drive(ctx, false, func(name string) error {
		if name != "c" {
			return nil
		}
		cancel()
		return ctx.Err()
	})
	landed := map[string]bool{}
	for _, res := range sum.Jobs {
		switch res.Status {
		case launcher.StatusOK:
			landed[res.Name] = true
		case launcher.StatusCancelled:
		default:
			t.Errorf("first drive: %s is %s (%s); a cancelled landing is not a verdict", res.Name, res.Status, res.Err)
		}
	}
	if landed["c"] {
		t.Fatal("job c landed although its Post hook was cut short")
	}
	mu.Lock()
	first := map[string]int{}
	for name, n := range runs {
		first[name] = n
	}
	mu.Unlock()

	sum, err = drive(context.Background(), true, func(string) error { return nil })
	if err != nil {
		t.Fatalf("resumed drive: %v", err)
	}
	for _, res := range sum.Jobs {
		if res.Status != launcher.StatusOK {
			t.Errorf("resumed drive: %s is %s", res.Name, res.Status)
		}
		if _, err := os.Stat(filepath.Join(root, "runs", res.Name, "uartlog")); err != nil {
			t.Errorf("%s has no console in its run directory: %v", res.Name, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, name := range names {
		again := runs[name] - first[name]
		if want := map[bool]int{true: 0, false: 1}[landed[name]]; again != want {
			t.Errorf("%s (landed before the cancel: %v) ran %d more time(s) on resume, want %d", name, landed[name], again, want)
		}
	}
}
