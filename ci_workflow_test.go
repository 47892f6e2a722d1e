package firemarshal

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"firemarshal/internal/yaml"
)

// TestCIWorkflowParses is an act-style dry parse of the CI workflow: the
// file must be valid YAML (per the same parser the spec loader uses),
// declare both gate jobs, and every `run:` step must reference a script
// that exists and is executable. A broken workflow edit fails here, in
// `go test`, instead of silently skipping CI on the hosted runner.
func TestCIWorkflowParses(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := yaml.Parse(src)
	if err != nil {
		t.Fatalf("ci.yml does not parse: %v", err)
	}
	wf, ok := doc.(map[string]any)
	if !ok {
		t.Fatalf("ci.yml top level = %T, want mapping", doc)
	}
	if wf["name"] != "ci" {
		t.Errorf("workflow name = %v", wf["name"])
	}

	on, ok := wf["on"].(map[string]any)
	if !ok {
		t.Fatalf("on = %T, want mapping", wf["on"])
	}
	push, ok := on["push"].(map[string]any)
	if !ok {
		t.Fatalf("on.push = %T", on["push"])
	}
	if branches, ok := push["branches"].([]any); !ok || len(branches) == 0 || branches[0] != "main" {
		t.Errorf("on.push.branches = %v", push["branches"])
	}
	if _, ok := on["pull_request"]; !ok {
		t.Error("workflow does not trigger on pull_request")
	}

	jobs, ok := wf["jobs"].(map[string]any)
	if !ok {
		t.Fatalf("jobs = %T, want mapping", wf["jobs"])
	}
	usesRe := regexp.MustCompile(`^[\w.-]+/[\w.-]+@v\d+`)
	wantRun := map[string]string{
		"check":       "scripts/check.sh",
		"bench":       "scripts/bench.sh",
		"metrics":     "scripts/bench.sh",
		"resume":      "scripts/resume_gate.sh",
		"distributed": "scripts/distributed_gate.sh",
		"verify-farm": "scripts/verify_gate.sh",
		"chaos":       "scripts/chaos_gate.sh",
		"cache":       "scripts/cache_gate.sh",
	}
	for _, name := range []string{"check", "bench", "metrics", "resume", "distributed", "verify-farm", "chaos", "cache"} {
		job, ok := jobs[name].(map[string]any)
		if !ok {
			t.Fatalf("jobs.%s = %T, want mapping", name, jobs[name])
		}
		if job["runs-on"] != "ubuntu-latest" {
			t.Errorf("jobs.%s.runs-on = %v", name, job["runs-on"])
		}
		steps, ok := job["steps"].([]any)
		if !ok || len(steps) == 0 {
			t.Fatalf("jobs.%s.steps = %v", name, job["steps"])
		}
		var sawGate, sawSetupGo, sawTracedGate bool
		for i, s := range steps {
			step, ok := s.(map[string]any)
			if !ok {
				t.Fatalf("jobs.%s.steps[%d] = %T", name, i, s)
			}
			if uses, ok := step["uses"].(string); ok {
				if !usesRe.MatchString(uses) {
					t.Errorf("jobs.%s.steps[%d].uses = %q, want owner/repo@vN", name, i, uses)
				}
				if strings.HasPrefix(uses, "actions/setup-go@") {
					sawSetupGo = true
					with, _ := step["with"].(map[string]any)
					if with["cache"] != true {
						t.Errorf("jobs.%s setup-go has no module/build cache: with = %v", name, with)
					}
				}
				continue
			}
			run, ok := step["run"].(string)
			if !ok {
				t.Errorf("jobs.%s.steps[%d] has neither uses nor run: %v", name, i, step)
				continue
			}
			// Each run step must point at a real, executable script.
			script := strings.Fields(strings.TrimSpace(run))[0]
			info, err := os.Stat(script)
			if err != nil {
				t.Errorf("jobs.%s run step references missing script %q: %v", name, script, err)
			} else if info.Mode()&0o111 == 0 {
				t.Errorf("jobs.%s script %q is not executable", name, script)
			}
			if script == "scripts/traced_gate.sh" {
				sawTracedGate = true
			}
			if script == wantRun[name] {
				sawGate = true
				// The metrics job is the bench gate re-run with the obs
				// shards attached; without the env it measures nothing new.
				if name == "metrics" {
					env, _ := step["env"].(map[string]any)
					if env["BENCH_METRICS"] != "1" {
						t.Errorf("jobs.metrics gate step does not set BENCH_METRICS=1: env = %v", env)
					}
				}
			}
		}
		if !sawSetupGo {
			t.Errorf("jobs.%s does not set up Go", name)
		}
		if !sawGate {
			t.Errorf("jobs.%s never runs its gate %s", name, wantRun[name])
		}
		// The bench job also gates the trace-compiled tier: the loop-heavy
		// workload under superblock dispatch, same 30% regression rule.
		if name == "bench" && !sawTracedGate {
			t.Error("jobs.bench never runs scripts/traced_gate.sh")
		}
	}
}

// TestNightlyWorkflowParses dry-parses the nightly verification-farm
// workflow the same way: valid YAML, a cron schedule plus manual
// dispatch, the farm job running an existing executable script, and an
// artifact-upload step that fires even on a red run (a nightly that
// finds a divergence is exactly the one whose repros must upload).
func TestNightlyWorkflowParses(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(".github", "workflows", "nightly.yml"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := yaml.Parse(src)
	if err != nil {
		t.Fatalf("nightly.yml does not parse: %v", err)
	}
	wf, ok := doc.(map[string]any)
	if !ok {
		t.Fatalf("nightly.yml top level = %T, want mapping", doc)
	}
	if wf["name"] != "nightly" {
		t.Errorf("workflow name = %v", wf["name"])
	}

	on, ok := wf["on"].(map[string]any)
	if !ok {
		t.Fatalf("on = %T, want mapping", wf["on"])
	}
	sched, ok := on["schedule"].([]any)
	if !ok || len(sched) == 0 {
		t.Fatalf("on.schedule = %v, want a cron list", on["schedule"])
	}
	entry, _ := sched[0].(map[string]any)
	cron, _ := entry["cron"].(string)
	if len(strings.Fields(cron)) != 5 {
		t.Errorf("on.schedule[0].cron = %q, want a 5-field cron expression", cron)
	}
	if _, ok := on["workflow_dispatch"]; !ok {
		t.Error("nightly is not manually dispatchable (workflow_dispatch)")
	}

	jobs, ok := wf["jobs"].(map[string]any)
	if !ok {
		t.Fatalf("jobs = %T, want mapping", wf["jobs"])
	}
	job, ok := jobs["farm"].(map[string]any)
	if !ok {
		t.Fatalf("jobs.farm = %T, want mapping", jobs["farm"])
	}
	steps, ok := job["steps"].([]any)
	if !ok || len(steps) == 0 {
		t.Fatalf("jobs.farm.steps = %v", job["steps"])
	}
	var sawFarm, sawUpload bool
	for i, s := range steps {
		step, ok := s.(map[string]any)
		if !ok {
			t.Fatalf("jobs.farm.steps[%d] = %T", i, s)
		}
		if run, ok := step["run"].(string); ok {
			script := strings.Fields(strings.TrimSpace(run))[0]
			info, err := os.Stat(script)
			if err != nil {
				t.Errorf("jobs.farm run step references missing script %q: %v", script, err)
			} else if info.Mode()&0o111 == 0 {
				t.Errorf("jobs.farm script %q is not executable", script)
			}
			if script == "scripts/nightly_farm.sh" {
				sawFarm = true
			}
		}
		if uses, ok := step["uses"].(string); ok && strings.HasPrefix(uses, "actions/upload-artifact@") {
			sawUpload = true
			if step["if"] != "always()" {
				t.Errorf("artifact upload must run on red nights too: if = %v", step["if"])
			}
		}
	}
	if !sawFarm {
		t.Error("jobs.farm never runs scripts/nightly_farm.sh")
	}
	if !sawUpload {
		t.Error("jobs.farm never uploads the farm artifacts")
	}

	// The fuzz job runs each differential fuzz target of the cycle-exact
	// tier's kernels and loop, the assembler's and the decoders', and the
	// workload spec's inheritance merge, for 30 s, and the targets it names
	// exist.
	fuzzJob, ok := jobs["fuzz"].(map[string]any)
	if !ok {
		t.Fatalf("jobs.fuzz = %T, want mapping", jobs["fuzz"])
	}
	fuzzSteps, _ := fuzzJob["steps"].([]any)
	for target, pkg := range map[string]string{
		"FuzzCacheVsReference":     "./internal/sim/cache",
		"FuzzTageVsReference":      "./internal/sim/bpred",
		"FuzzTimedVsReference":     "./internal/sim/rtlsim",
		"FuzzFastVsReference":      "./internal/sim",
		"FuzzTraceTierVsReference": "./internal/sim",
		"FuzzDecodeEncode":         "./internal/isa",
		"FuzzAssemble":             "./internal/asm",
		"FuzzAssembleVsReference":  "./internal/asm",
		"FuzzDecode":               "./internal/fsimg",
		"FuzzDecodeCPIO":           "./internal/fsimg",
		"FuzzLeaseBody":            "./internal/launcher/remote",
		"FuzzEventStream":          "./internal/launcher/remote",
		"FuzzActionLog":            "./internal/cas",
		"FuzzLoadPointer":          "./internal/checkpoint",
		"FuzzDecodePack":           "./internal/checkpoint",
		"FuzzFirmwareDecode":       "./internal/firmware",
		"FuzzStateDB":              "./internal/dag",
		"FuzzReadManifest":         "./internal/launcher",
		"FuzzInstallLoad":          "./internal/install",
		"FuzzResolve":              "./internal/spec",
	} {
		found := false
		for _, s := range fuzzSteps {
			step, _ := s.(map[string]any)
			run, _ := step["run"].(string)
			if strings.HasPrefix(run, "go test ") && strings.Contains(run, "-fuzz '^"+target+"$'") &&
				strings.Contains(run, "-fuzztime 30s") && strings.HasSuffix(run, " "+pkg) {
				found = true
			}
		}
		if !found {
			t.Errorf("jobs.fuzz never runs %s in %s for 30s", target, pkg)
		}
		tests, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined := false
		for _, f := range tests {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			defined = defined || strings.Contains(string(src), "func "+target+"(f *testing.F)")
		}
		if !defined {
			t.Errorf("nightly fuzzes %s, which %s does not define", target, pkg)
		}
	}
}

// TestCheckScriptGatesSemanticsInlining holds scripts/check.sh — the script
// the `check` job runs — to its inlining gate: one -m=2 build of
// internal/sim whose report on semantics.go must show the value rules
// inlining, with only the four store helpers excused, and whose report on
// memory.go must show the three soft-TLB probes inlining. Without it a later
// edit could turn a shared instruction rule, or every guest load and store,
// into a call per retired instruction on every tier and no test would
// notice. The same script must run the trace tier's no-call test without
// the race detector, which would otherwise skip it.
func TestCheckScriptGatesSemanticsInlining(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("scripts", "check.sh"))
	if err != nil {
		t.Fatal(err)
	}
	script := string(src)
	if n := strings.Count(script, "go build -gcflags=-m=2 ./internal/sim 2>&1"); n != 1 {
		t.Errorf("check.sh runs the -m=2 build of internal/sim %d times, want once", n)
	}
	for _, want := range []string{
		`semantics\.go:`,          // scoped to the shared rules
		"cannot inline",           // what fails the gate
		`store(8|16|32|64):`,      // the only excused functions
		`"can inline slt "`,       // proof the report was produced at all
		`(semantics|memory)\.go:`, // the hot memory path is gated too
		`"can inline (*Memory).$probe "`,
		"for probe in lookup storeHit loadHit",
		"exit 1",
		"go test -count=1 -run '^TestPassLoopMakesNoCall$' ./internal/sim",
	} {
		if !strings.Contains(script, want) {
			t.Errorf("check.sh's inlining gate lacks %q", want)
		}
	}
	if gate, test := strings.Index(script, "-gcflags=-m=2"), strings.Index(script, "go test -race"); gate < 0 || gate > test {
		t.Error("check.sh must run the inlining gate before the test suite")
	}
}
