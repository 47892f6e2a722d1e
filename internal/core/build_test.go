package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"firemarshal/internal/fsimg"
	"firemarshal/internal/hostutil"
)

// chainLevels is a four-deep inheritance chain, root first: each level adds
// to the image it derives from.
var chainLevels = []string{"p", "c1", "c2", "c3"}

func writeLevels(t *testing.T, wlDir string) {
	t.Helper()
	files := map[string]string{
		"p.json":              `{"name":"p","base":"br-base","overlay":"ov-p"}`,
		"ov-p/etc/p.conf":     "level=p\n",
		"ov-p/bench/data.bin": strings.Repeat("0123456789abcdef", 8<<10),
		"c1.json":             `{"name":"c1","base":"p","files":[["c1.txt","/etc/c1.txt"]]}`,
		"c1.txt":              "level=c1\n",
		"c2.json":             `{"name":"c2","base":"c1","overlay":"ov-c2"}`,
		"ov-c2/etc/c2.conf":   "level=c2\n",
		"c3.json":             `{"name":"c3","base":"c2","command":"cat /etc/c2.conf"}`,
	}
	for name, content := range files {
		p := filepath.Join(wlDir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// onLog runs fn, once per line, whenever a line the build logs contains
// marker: at that point of the build, synchronously.
type onLog struct {
	mu     sync.Mutex
	marker string
	fn     func()
}

func (l *onLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if bytes.Contains(p, []byte(l.marker)) {
		l.fn()
	}
	return len(p), nil
}

// imageDigests hashes every level's image in a work tree.
func imageDigests(t *testing.T, m *Marshal) map[string]string {
	t.Helper()
	sums := map[string]string{}
	for _, name := range chainLevels {
		sum, err := hostutil.HashFile(m.ImgPath(name))
		if err != nil {
			t.Fatal(err)
		}
		sums[name] = sum
	}
	return sums
}

// A chain built in one Build derives each child from its parent's tree in
// memory; built one level per Build, with a fresh Marshal each time, every
// child decodes its parent's file. Both give every image the same bytes.
// The parent c2 derives from is replaced on disk as c2 starts to build:
// the child must then derive from the file as it now is, in one Build as
// much as level by level, so a tree looked up by its artifact's name — the
// parent as it was built — gives c2 other bytes and fails the comparison.
func TestChildImagesFromMemoryMatchChildrenFromFile(t *testing.T) {
	wlDir := t.TempDir()
	writeLevels(t, wlDir)
	replacement := fsimg.New()
	replacement.WriteFile("/etc/replaced", []byte("c1 replaced on disk\n"), 0o644)
	var alt bytes.Buffer
	if _, err := replacement.WriteTo(&alt); err != nil {
		t.Fatal(err)
	}
	marshal := func(workDir string) *Marshal {
		m, err := New(workDir, wlDir)
		if err != nil {
			t.Fatal(err)
		}
		m.Log = &onLog{marker: "building image for c2 ", fn: func() {
			if err := hostutil.WriteFileAtomic(m.ImgPath("c1"), alt.Bytes(), 0o444); err != nil {
				t.Error(err)
			}
		}}
		return m
	}

	oneDir, levelDir := t.TempDir(), t.TempDir()
	one := marshal(oneDir)
	if _, err := one.Build("c3", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	var byLevel *Marshal
	for _, name := range chainLevels {
		byLevel = marshal(levelDir)
		if _, err := byLevel.Build(name, BuildOpts{}); err != nil {
			t.Fatal(err)
		}
		if name != "p" && !slices.Contains(byLevel.LastBuildStats.Skipped, "img:"+chainLevels[0]) {
			t.Fatalf("building %s level by level rebuilt the root: %+v", name, byLevel.LastBuildStats)
		}
	}

	got, want := imageDigests(t, one), imageDigests(t, byLevel)
	for _, name := range chainLevels {
		if got[name] != want[name] {
			t.Errorf("%s: one Build wrote %.12s, level by level %.12s", name, got[name], want[name])
		}
	}
	c2 := readImg(t, one.ImgPath("c2"))
	if c2.Lookup("/etc/replaced") == nil || c2.Lookup("/etc/c1.txt") != nil {
		t.Error("c2 was not derived from its parent's file as it stood when c2 was built")
	}
	if c3 := readImg(t, one.ImgPath("c3")); c3.Lookup("/etc/c2.conf") == nil || c3.Lookup("/etc/replaced") == nil {
		t.Error("c3 was not derived from c2")
	}
}

// A no-disk binary embeds its image's tree: taken from memory when the
// image was built in the same Build, decoded from the file when the image
// was up to date. The binaries are the same bytes either way.
func TestNoDiskBinaryFromMemoryMatchesFromFile(t *testing.T) {
	wlDir := t.TempDir()
	writeLevels(t, wlDir)
	marshal := func(workDir string) *Marshal {
		m, err := New(workDir, wlDir)
		if err != nil {
			t.Fatal(err)
		}
		m.Log = io.Discard
		return m
	}
	one := marshal(t.TempDir())
	if _, err := one.Build("c3", BuildOpts{NoDisk: true}); err != nil {
		t.Fatal(err)
	}
	later := t.TempDir()
	if _, err := marshal(later).Build("c3", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	fromFile := marshal(later)
	if _, err := fromFile.Build("c3", BuildOpts{NoDisk: true}); err != nil {
		t.Fatal(err)
	}
	if len(fromFile.LastBuildStats.Skipped) == 0 || slices.Contains(fromFile.LastBuildStats.Executed, "img:c3") {
		t.Fatalf("the images were not up to date for the no-disk build: %+v", fromFile.LastBuildStats)
	}
	a, err := hostutil.HashFile(one.NoDiskBinPath("c3"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hostutil.HashFile(fromFile.NoDiskBinPath("c3"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("no-disk binary from memory %.12s, from the file %.12s", a, b)
	}
}
