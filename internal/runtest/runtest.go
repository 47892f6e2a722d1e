// Package runtest implements the machinery behind `marshal test`
// (§III-D): cleaning run outputs of irrelevant or non-deterministic content
// (timestamps), and comparing them against reference outputs. "A complete
// comparison of outputs is not typically appropriate ... Instead,
// FireMarshal is able to clean outputs and allows the reference to contain
// only a subset of the expected output. A test that produces that subset
// somewhere in its output is considered a success."
package runtest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// timestampRE strips kernel printk-style "[   12.345678] " prefixes, which
// legitimately differ between functional and cycle-exact runs.
var timestampRE = regexp.MustCompile(`^\[\s*\d+\.\d+\]\s?`)

// isoTimeRE strips ISO-8601-ish timestamps embedded in lines.
var isoTimeRE = regexp.MustCompile(`\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}:\d{2}(\.\d+)?`)

// CleanOutput normalizes run output for comparison: CRLF, printk
// timestamps, and embedded wall-clock timestamps.
func CleanOutput(s string) string {
	lines := strings.Split(strings.ReplaceAll(s, "\r\n", "\n"), "\n")
	for i, line := range lines {
		line = timestampRE.ReplaceAllString(line, "")
		line = isoTimeRE.ReplaceAllString(line, "<TIME>")
		lines[i] = strings.TrimRight(line, " \t")
	}
	return strings.Join(lines, "\n")
}

// MatchSubset reports whether every line of ref appears, in order, within
// got (both cleaned). Empty reference lines are ignored.
func MatchSubset(got, ref string) bool {
	return matchSubset(got, ref, true)
}

func matchSubset(got, ref string, clean bool) bool {
	if clean {
		got, ref = CleanOutput(got), CleanOutput(ref)
	}
	gotLines := strings.Split(got, "\n")
	pos := 0
	for _, refLine := range strings.Split(ref, "\n") {
		refLine = strings.TrimSpace(refLine)
		if refLine == "" {
			continue
		}
		found := false
		for ; pos < len(gotLines); pos++ {
			if strings.Contains(gotLines[pos], refLine) {
				found = true
				pos++
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Failure describes one mismatched reference file.
type Failure struct {
	RefFile string
	Detail  string
}

func (f Failure) String() string { return fmt.Sprintf("%s: %s", f.RefFile, f.Detail) }

// CompareDir checks a run-output directory against a reference directory
// with output cleaning enabled. Every file in refDir must exist in outDir
// and match as a cleaned subset. Files in outDir without a reference are
// ignored (references "contain only a subset of the expected output").
func CompareDir(outDir, refDir string) ([]Failure, error) {
	return CompareDirOpt(outDir, refDir, true)
}

// CompareDirOpt is CompareDir with cleaning controlled by the workload's
// testing.strip option.
func CompareDirOpt(outDir, refDir string, clean bool) ([]Failure, error) {
	return CompareDirFiltered(outDir, refDir, clean, nil)
}

// CompareDirFiltered additionally skips top-level reference subdirectories
// for which skipDir returns true — used for multi-job workloads whose
// refDir holds per-job subdirectories that do not apply to every job.
func CompareDirFiltered(outDir, refDir string, clean bool, skipDir func(name string) bool) ([]Failure, error) {
	var failures []Failure
	err := filepath.Walk(refDir, func(path string, info os.FileInfo, werr error) error {
		if werr != nil {
			return werr
		}
		if info.IsDir() {
			if skipDir != nil && filepath.Dir(path) == filepath.Clean(refDir) && skipDir(info.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(refDir, path)
		if err != nil {
			return err
		}
		refData, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		outPath := filepath.Join(outDir, rel)
		outData, err := os.ReadFile(outPath)
		if err != nil {
			failures = append(failures, Failure{RefFile: rel, Detail: "missing from run output"})
			return nil
		}
		if !matchSubset(string(outData), string(refData), clean) {
			failures = append(failures, Failure{
				RefFile: rel,
				Detail:  fmt.Sprintf("reference content not found in %s", outPath),
			})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("runtest: comparing against %s: %w", refDir, err)
	}
	return failures, nil
}
