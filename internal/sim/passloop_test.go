//go:build !race

package sim

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestPassLoopMakesNoCall compiles this package with -S and fails on any
// call in runPasses's assembly but a runtime panic or morestack stub. Go
// keeps no register live across a call, so one call anywhere in the pass
// loop would send its state through the stack on every op (DESIGN.md
// "Trace compilation", "Pass loop"). A race build instruments every
// function with calls, hence the build tag; scripts/check.sh runs this
// test without -race.
func TestPassLoopMakesNoCall(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-S", "-o", os.DevNull, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-S: %v\n%s", err, out)
	}
	// The listing is a header line at the left margin and the function's
	// instructions indented under it.
	text := string(out)
	at := strings.Index(text, "\nfiremarshal/internal/sim.runPasses STEXT")
	if at < 0 {
		t.Fatalf("no assembly for runPasses in the compiler's output:\n%.2000s", out)
	}
	var fn []string
	for _, line := range strings.Split(text[at+1:], "\n")[1:] {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		fn = append(fn, line)
	}
	if len(fn) == 0 {
		t.Fatal("runPasses's listing is empty")
	}
	for _, line := range fn {
		f := strings.Fields(line)
		for i, w := range f {
			if w != "CALL" || i+1 == len(f) {
				continue
			}
			if callee := f[i+1]; !strings.HasPrefix(callee, "runtime.panic") && !strings.HasPrefix(callee, "runtime.morestack") {
				t.Errorf("runPasses calls %s: %s", callee, strings.TrimSpace(line))
			}
		}
	}
}
