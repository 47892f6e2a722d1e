package runtest

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCleanOutputStripsTimestamps(t *testing.T) {
	in := "[    0.123456] Linux version 5.7.0\n[   12.000001] init: done\nplain line\n"
	want := "Linux version 5.7.0\ninit: done\nplain line\n"
	if got := CleanOutput(in); got != want {
		t.Errorf("CleanOutput = %q, want %q", got, want)
	}
}

func TestCleanOutputISOTimes(t *testing.T) {
	in := "run started 2021-03-04 12:13:14.5 on host"
	got := CleanOutput(in)
	if got != "run started <TIME> on host" {
		t.Errorf("got %q", got)
	}
}

func TestCleanOutputCRLF(t *testing.T) {
	if CleanOutput("a\r\nb") != "a\nb" {
		t.Error("CRLF not normalized")
	}
}

func TestMatchSubsetInOrder(t *testing.T) {
	got := "boot stuff\nresult: 42\nmore noise\nscore: 1.5\nshutdown\n"
	if !MatchSubset(got, "result: 42\nscore: 1.5\n") {
		t.Error("ordered subset should match")
	}
	if MatchSubset(got, "score: 1.5\nresult: 42\n") {
		t.Error("out-of-order reference must not match")
	}
	if MatchSubset(got, "result: 43\n") {
		t.Error("absent line must not match")
	}
}

func TestMatchSubsetIgnoresTimestamps(t *testing.T) {
	got := "[    1.000000] result: 42\n"
	ref := "[  999.999999] result: 42\n"
	if !MatchSubset(got, ref) {
		t.Error("timestamps should be cleaned before comparison")
	}
}

func TestMatchSubsetEmptyRef(t *testing.T) {
	if !MatchSubset("anything", "\n\n") {
		t.Error("empty reference matches everything")
	}
}

func TestMatchSubsetPartialLine(t *testing.T) {
	// Reference lines match as substrings of output lines.
	if !MatchSubset("the result: 42 (ok)\n", "result: 42") {
		t.Error("substring match should succeed")
	}
}

func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		p := filepath.Join(root, rel)
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareDirSuccess(t *testing.T) {
	out, ref := t.TempDir(), t.TempDir()
	writeTree(t, out, map[string]string{
		"uartlog":        "[  0.1] boot\nresult: 42\n[  0.2] down\n",
		"output/res.csv": "name,score\nbench,1.5\n",
		"extra.log":      "not referenced",
	})
	writeTree(t, ref, map[string]string{
		"uartlog":        "result: 42\n",
		"output/res.csv": "bench,1.5\n",
	})
	failures, err := CompareDir(out, ref, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Errorf("failures: %v", failures)
	}
}

func TestCompareDirMissingFile(t *testing.T) {
	out, ref := t.TempDir(), t.TempDir()
	writeTree(t, ref, map[string]string{"uartlog": "x\n"})
	failures, err := CompareDir(out, ref, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || failures[0].RefFile != "uartlog" {
		t.Errorf("failures = %v", failures)
	}
}

func TestCompareDirContentMismatch(t *testing.T) {
	out, ref := t.TempDir(), t.TempDir()
	writeTree(t, out, map[string]string{"uartlog": "got something else\n"})
	writeTree(t, ref, map[string]string{"uartlog": "expected line\n"})
	failures, err := CompareDir(out, ref, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 {
		t.Errorf("failures = %v", failures)
	}
	if failures[0].String() == "" {
		t.Error("failure should format")
	}
}

func TestCompareDirMissingRefDir(t *testing.T) {
	if _, err := CompareDir(t.TempDir(), "/nonexistent-ref", true, nil); err == nil {
		t.Error("expected error for missing reference dir")
	}
}
