package firemarshal

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose backtick citations must resolve.
var citedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

var (
	codeSpanRe   = regexp.MustCompile("`([^`]+)`")
	testFuncRe   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	citedTestRe  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	citedCmdRe   = regexp.MustCompile(`(?:^|[\s/(])marshal ([a-z][a-z-]*)\b`)
	dispatchRe   = regexp.MustCompile(`(?s)switch cmd \{(.*?)default:`)
	caseLabelRe  = regexp.MustCompile(`"([a-z][a-z-]*)"`)
	pathLookRe   = regexp.MustCompile(`^[\w.][\w.*/-]*$`)
	lineSuffixRe = regexp.MustCompile(`:\d+(-\d+)?$`)
)

// TestDocsCiteWhatExists: every test, benchmark or fuzz target, every
// repository path and every `marshal <command>` that DESIGN.md, README.md
// or EXPERIMENTS.md cites in backticks exists in the tree — a document
// that still sends its reader to a deleted test, file or command fails
// here, not in the reader's terminal.
func TestDocsCiteWhatExists(t *testing.T) {
	tests := map[string]bool{}
	base := map[string]bool{} // file and directory base names anywhere in the tree
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".claude") {
			return filepath.SkipDir
		}
		base[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
				tests[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	main, err := os.ReadFile("cmd/marshal/main.go")
	if err != nil {
		t.Fatal(err)
	}
	dispatch := dispatchRe.FindSubmatch(main)
	if dispatch == nil {
		t.Fatal("cmd/marshal/main.go: no `switch cmd {` dispatch")
	}
	commands := map[string]bool{}
	for _, m := range caseLabelRe.FindAllSubmatch(dispatch[1], -1) {
		commands[string(m[1])] = true
	}
	if !commands["build"] || !commands["launch"] {
		t.Fatalf("dispatch parsed to %v, want at least build and launch", commands)
	}

	for _, doc := range citedDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// A fenced block is checked for commands only (its paths are a
		// shell session's); blanking it keeps the line numbers and the
		// inline spans' backtick pairing.
		lines := strings.Split(string(data), "\n")
		fenced := false
		for i, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				lines[i] = ""
				continue
			}
			if fenced {
				for _, problem := range commandProblems(line, commands) {
					t.Errorf("%s:%d: %s", doc, i+1, problem)
				}
				lines[i] = ""
			}
		}
		text := strings.Join(lines, "\n")
		for _, loc := range codeSpanRe.FindAllStringSubmatchIndex(text, -1) {
			span := strings.ReplaceAll(text[loc[2]:loc[3]], "\n", " ")
			line := strings.Count(text[:loc[0]], "\n") + 1
			for _, problem := range citationProblems(span, tests, base, commands) {
				t.Errorf("%s:%d: `%s`: %s", doc, line, span, problem)
			}
		}
	}
}

// commandProblems lists the `marshal <command>`s in text that the CLI
// does not dispatch.
func commandProblems(text string, commands map[string]bool) []string {
	var problems []string
	for _, m := range citedCmdRe.FindAllStringSubmatch(text, -1) {
		if !commands[m[1]] {
			problems = append(problems, "marshal has no command "+m[1])
		}
	}
	return problems
}

// citationProblems lists what one code span cites that does not exist.
func citationProblems(span string, tests, base, commands map[string]bool) []string {
	problems := commandProblems(span, commands)
	for _, name := range citedTestRe.FindAllString(span, -1) {
		if !testExists(name, tests) {
			problems = append(problems, "no test function "+name)
		}
	}
	for _, field := range strings.Fields(span) {
		if p := citedPath(field); p != "" && !pathExists(p, base) {
			problems = append(problems, "no path "+p)
		}
	}
	return problems
}

// citedPath returns the repository path a span field names, or "" when
// the field does not look like one: a path has a slash or a file
// extension, and placeholders, flags, URLs and absolute paths are not
// paths into the repository.
func citedPath(field string) string {
	field = strings.TrimPrefix(field, "./")
	field = strings.TrimPrefix(field, "firemarshal/")
	field = strings.TrimRight(field, ",;)")
	field = lineSuffixRe.ReplaceAllString(field, "")
	if !pathLookRe.MatchString(field) || strings.Contains(field, "...") {
		return ""
	}
	if strings.Contains(field, "/") {
		top, _, _ := strings.Cut(field, "/")
		if info, err := os.Stat(top); err != nil || !info.IsDir() {
			return "" // relative to a work dir or package, not the repo root
		}
		return field
	}
	// A bare name is a source file's; a work directory's files (state.json,
	// *.jsonl) are not in the repository.
	switch filepath.Ext(field) {
	case ".go", ".md", ".sh", ".yml", ".s":
		if !strings.HasPrefix(field, "_") {
			return field
		}
	}
	return ""
}

// pathExists resolves a repository path (globs allowed); a bare file
// name resolves if a file of that name is anywhere in the tree.
func pathExists(p string, base map[string]bool) bool {
	if !strings.Contains(p, "/") && !strings.Contains(p, "*") {
		return base[p]
	}
	matches, err := filepath.Glob(p)
	return err == nil && len(matches) > 0
}

// testExists resolves a cited test name; a trailing * matches a prefix.
func testExists(name string, tests map[string]bool) bool {
	prefix, glob := strings.CutSuffix(name, "*")
	if !glob {
		return tests[name]
	}
	for t := range tests {
		if strings.HasPrefix(t, prefix) {
			return true
		}
	}
	return false
}
