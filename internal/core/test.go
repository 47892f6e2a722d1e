package core

import (
	"fmt"

	"firemarshal/internal/runtest"
)

// TestOpts controls the test command (§III-D).
type TestOpts struct {
	// Manual compares an existing output directory instead of building and
	// launching (`marshal test --manual`, used to verify outputs of a
	// cycle-exact run, §III-E).
	Manual string
	// Jobs caps concurrent job simulations, like LaunchOpts.Jobs.
	Jobs int
}

// TestResult reports one target's test outcome.
type TestResult struct {
	Target   string
	Passed   bool
	Failures []runtest.Failure
	// Run is the launch result (nil for --manual).
	Run *RunResult
}

// Test builds and launches the workload, then compares run outputs against
// the workload's reference directory (§III-D). With opts.Manual it only
// performs the comparison.
func (m *Marshal) Test(nameOrPath string, opts TestOpts) ([]*TestResult, error) {
	w, err := m.Loader.Load(nameOrPath)
	if err != nil {
		return nil, err
	}
	testing := w.Effective.Testing
	if testing == nil || testing.RefDir == "" {
		return nil, fmt.Errorf("core: workload %q has no testing.refDir", w.Name)
	}
	refDir := testing.RefDir

	if opts.Manual != "" {
		failures, err := runtest.CompareDir(opts.Manual, refDir, testing.Strip, nil)
		if err != nil {
			return nil, err
		}
		return []*TestResult{{Target: w.Name, Passed: len(failures) == 0, Failures: failures}}, nil
	}

	// Launch the workload already loaded above — no second spec read.
	runs, err := m.LaunchWorkload(w, LaunchOpts{Jobs: opts.Jobs})
	if err != nil {
		return nil, err
	}
	var jobs []string
	for _, run := range runs {
		jobs = append(jobs, run.Target)
	}
	var results []*TestResult
	for _, run := range runs {
		failures, err := runtest.CompareJob(run.OutputDir, refDir, w.Name, run.Target, jobs, testing.Strip)
		if err != nil {
			return nil, err
		}
		// testing.timeout bounds the run in simulated seconds (guest time
		// at the platform's 1 GHz clock).
		if testing.TimeoutSec > 0 && run.Cycles > uint64(testing.TimeoutSec)*1_000_000_000 {
			failures = append(failures, runtest.Failure{
				RefFile: "timeout",
				Detail: fmt.Sprintf("run took %.3fs of guest time (limit %ds)",
					float64(run.Cycles)/1e9, testing.TimeoutSec),
			})
		}
		results = append(results, &TestResult{
			Target:   run.Target,
			Passed:   len(failures) == 0,
			Failures: failures,
			Run:      run,
		})
	}
	return results, nil
}
