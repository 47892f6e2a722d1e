package workgen

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"firemarshal/internal/asm"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/isa"
)

// ParallelJob is one generated job of an N-job benchmark workload.
type ParallelJob struct {
	// Name is the job name (job00, job01, ...), unique within the
	// workload even when benchmarks repeat.
	Name string
	// Bench is the intspeed benchmark the program is drawn from.
	Bench string
	// Source is the generated assembly.
	Source string
}

// ParallelJobs returns n deterministic benchmark programs drawn
// round-robin from the intspeed suite. It is the single generator behind
// `workgen -jobs N`, the parallel-speedup demo, and the launcher's
// determinism tests — Case Study B runs exactly this shape of workload,
// "one per benchmark in the suite" (§IV-B.1), as parallel simulations.
func ParallelJobs(n int, dataset string) []ParallelJob {
	suite := IntSpeedSuite()
	out := make([]ParallelJob, n)
	for i := range out {
		b := suite[i%len(suite)]
		out[i] = ParallelJob{
			Name:   fmt.Sprintf("job%02d", i),
			Bench:  b.Name,
			Source: b.Source(dataset),
		}
	}
	return out
}

// EmitParallelWorkload writes an n-job workload into dir: assembled
// benchmark binaries under overlay-parjobs/parjobs and a parjobs.json
// workload whose jobs each run one binary (each prints
// "<bench>,<cycles>,<checksum>" to its own uartlog). It returns the
// workload file path; launch it with `marshal launch -j N parjobs`.
func EmitParallelWorkload(dir string, n int, dataset string) (string, error) {
	if n < 1 {
		return "", fmt.Errorf("workgen: jobs must be >= 1, got %d", n)
	}
	binDir := filepath.Join(dir, "overlay-parjobs", "parjobs")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	var jobLines []string
	for _, j := range ParallelJobs(n, dataset) {
		exe, err := asm.Assemble(j.Source, asm.Options{})
		if err != nil {
			return "", fmt.Errorf("workgen: assembling %s (%s): %w", j.Name, j.Bench, err)
		}
		if err := hostutil.WriteFileAtomic(filepath.Join(binDir, j.Name), isa.EncodeExecutable(exe), 0o755); err != nil {
			return "", err
		}
		jobLines = append(jobLines, fmt.Sprintf(
			`    { "name": %q, "command": "/parjobs/%s" }`, j.Name, j.Name))
	}
	doc := fmt.Sprintf(`{
  "name": "parjobs",
  "base": "br-base",
  "overlay": "overlay-parjobs",
  "jobs": [
%s
  ]
}
`, strings.Join(jobLines, ",\n"))
	path := filepath.Join(dir, "parjobs.json")
	if err := hostutil.WriteFileAtomic(path, []byte(doc), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
