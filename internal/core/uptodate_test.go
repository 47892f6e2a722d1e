package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildW builds workload w and fails the test on an error.
func buildW(t *testing.T, e *testEnv) {
	t.Helper()
	if _, err := e.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
}

// Two `files` sources that swap contents leave every sorted set of input
// digests as it was, but not the inputs: the image is rebuilt and each
// guest path holds its new source's bytes.
func TestSwappedFilesSourcesRebuildTheImage(t *testing.T) {
	e := newEnv(t)
	e.write(t, "a.txt", "alpha\n")
	e.write(t, "b.txt", "bravo\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","files":[["a.txt","/root/a.txt"],["b.txt","/root/b.txt"]],"command":"cat /root/a.txt"}`)
	buildW(t, e)
	e.write(t, "a.txt", "bravo\n")
	e.write(t, "b.txt", "alpha\n")
	buildW(t, e)
	if got := e.m.LastBuildStats.Executed; strings.Join(got, " ") != "img:w" {
		t.Errorf("after the swap the build executed %v (restored %v), want img:w alone", got, e.m.LastBuildStats.Restored)
	}
	fs := readImg(t, e.m.ImgPath("w"))
	for path, want := range map[string]string{"/root/a.txt": "bravo\n", "/root/b.txt": "alpha\n"} {
		if data, err := fs.ReadFile(path); err != nil || string(data) != want {
			t.Errorf("%s holds %q (%v), want %q", path, data, err, want)
		}
	}
}

// Setting an exec bit on a `files` source alone changes the guest file's
// mode, so it changes the image's inputs.
func TestExecBitOnAFilesSourceReachesTheImage(t *testing.T) {
	e := newEnv(t)
	src := e.write(t, "tool", "#!/fake\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","files":[["tool","/usr/bin/tool"]],"command":"echo hi"}`)
	buildW(t, e)
	if f := readImg(t, e.m.ImgPath("w")).Lookup("/usr/bin/tool"); f == nil || f.IsExec() {
		t.Fatalf("a 0644 source gave %+v, want a file without its exec bit", f)
	}
	if err := os.Chmod(src, 0o755); err != nil {
		t.Fatal(err)
	}
	buildW(t, e)
	if f := readImg(t, e.m.ImgPath("w")).Lookup("/usr/bin/tool"); f == nil || f.Mode&0o777 != 0o755 {
		t.Errorf("after chmod +x the guest file is %+v, want mode 0755", f)
	}
}

// A workload with several kernel modules lists their dirs in one order on
// every build, so a no-op rebuild neither runs nor restores anything.
func TestManyModulesNoOpRebuilds(t *testing.T) {
	e := newEnv(t)
	mods := map[string]string{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("mod%d", i)
		e.write(t, filepath.Join(name, name+".c"), fmt.Sprintf("int init%d(void){}\n", i))
		mods[name] = name
	}
	var list []string
	for name, dir := range mods {
		list = append(list, fmt.Sprintf("%q:%q", name, dir))
	}
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x","linux":{"modules":{`+strings.Join(list, ",")+`}}}`)
	buildW(t, e)
	for i := 0; i < 5; i++ {
		buildW(t, e)
		if st := e.m.LastBuildStats; len(st.Executed)+len(st.Restored) != 0 {
			t.Fatalf("no-op rebuild %d executed %v and restored %v, want neither", i+1, st.Executed, st.Restored)
		}
	}
}

// A state DB an older version wrote (one record of path-keyed hashes per
// task, the digest table under the empty name) reads as empty: the build
// after it succeeds, and runs or restores every task rather than trusting
// the old records.
func TestOlderStateDBReadsAsEmpty(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x"}`)
	buildW(t, e)
	old := `{"": {"files": []}, "img:w": {"depHashes": {}, "valueHashes": {}, "targetsSeen": ["` + e.m.ImgPath("w") + `"], "actionKey": "00"}}`
	if err := os.WriteFile(e.m.stateDB(), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	buildW(t, e)
	if st := e.m.LastBuildStats; len(st.Skipped) != 0 || len(st.Executed)+len(st.Restored) == 0 {
		t.Errorf("build over an older state DB executed %v, restored %v, skipped %v; want nothing skipped", st.Executed, st.Restored, st.Skipped)
	}
	buildW(t, e)
	if st := e.m.LastBuildStats; len(st.Executed)+len(st.Restored) != 0 {
		t.Errorf("the rebuild after it executed %v and restored %v, want neither", st.Executed, st.Restored)
	}
}
