package hostutil

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestHashBytesAndStrings(t *testing.T) {
	if HashBytes([]byte("a")) == HashBytes([]byte("b")) {
		t.Error("different content, same hash")
	}
	if HashBytes([]byte("a")) != HashBytes([]byte("a")) {
		t.Error("same content, different hash")
	}
	// Length framing: ("ab","c") != ("a","bc").
	if HashStrings("ab", "c") == HashStrings("a", "bc") {
		t.Error("HashStrings not framed")
	}
}

func TestHashFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	os.WriteFile(p, []byte("content"), 0o644)
	h1, err := HashFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != HashBytes([]byte("content")) {
		t.Error("HashFile != HashBytes of content")
	}
	if _, err := HashFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestHashDir(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "sub"), 0o755)
	os.WriteFile(filepath.Join(dir, "a"), []byte("1"), 0o644)
	os.WriteFile(filepath.Join(dir, "sub", "b"), []byte("2"), 0o644)
	h1, err := HashDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged -> same hash.
	h2, _ := HashDir(dir)
	if h1 != h2 {
		t.Error("HashDir not deterministic")
	}
	// New file -> different hash.
	os.WriteFile(filepath.Join(dir, "c"), []byte("3"), 0o644)
	h3, _ := HashDir(dir)
	if h3 == h1 {
		t.Error("HashDir insensitive to new file")
	}
	// Missing dir -> stable sentinel, not an error.
	m1, err := HashDir(filepath.Join(dir, "ghost"))
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := HashDir(filepath.Join(dir, "ghost"))
	if m1 != m2 {
		t.Error("missing-dir hash unstable")
	}
	// HashTree is HashDir plus the content bytes it read: none, for files
	// the digest cache knows unchanged, and the new one's when one comes.
	if th := known(t, dir); th != h3 {
		t.Errorf("HashTree = %s, want HashDir's %s", th, h3)
	}
	os.WriteFile(filepath.Join(dir, "sub", "d"), []byte("45"), 0o644)
	if _, n, err := HashTree(dir); err != nil || n != 2 {
		t.Errorf("HashTree after adding a 2-byte file read %d bytes (%v), want 2", n, err)
	}
	// A file path hashes as the file.
	fh, err := HashDir(filepath.Join(dir, "a"))
	if err != nil || fh != HashBytes([]byte("1")) {
		t.Errorf("file-path HashDir: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "deep", "nested", "f.txt")
	if err := WriteFileAtomic(p, []byte("data"), 0o600); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil || string(data) != "data" {
		t.Errorf("read back: %q %v", data, err)
	}
	info, _ := os.Stat(p)
	if info.Mode().Perm() != 0o600 {
		t.Errorf("mode = %v", info.Mode())
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(filepath.Dir(p))
	if len(entries) != 1 {
		t.Errorf("leftover files: %v", entries)
	}
	// Overwrite works.
	if err := WriteFileAtomic(p, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(p)
	if string(data) != "new" {
		t.Error("overwrite failed")
	}
}

func TestRunHostScript(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "s.sh")
	os.WriteFile(script, []byte("#!/bin/sh\necho out-$1\necho err >&2\n"), 0o755)
	res, err := RunHostScript("s.sh extra", dir, "arg2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "out-extra") {
		t.Errorf("stdout = %q", res.Stdout)
	}
	if !strings.Contains(res.Stderr, "err") {
		t.Errorf("stderr = %q", res.Stderr)
	}
}

func TestRunHostScriptNonExecutable(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "plain.sh"), []byte("echo via-sh\n"), 0o644)
	res, err := RunHostScript("plain.sh", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "via-sh") {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestRunHostScriptFailure(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "fail.sh"), []byte("#!/bin/sh\necho oops >&2\nexit 3\n"), 0o755)
	res, err := RunHostScript("fail.sh", dir)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "oops") {
		t.Errorf("error should carry stderr: %v", err)
	}
	if res == nil {
		t.Error("result should be returned even on failure")
	}
	if _, err := RunHostScript("", dir); err == nil {
		t.Error("empty script should fail")
	}
}

func TestCopyFileAndDir(t *testing.T) {
	src := t.TempDir()
	os.MkdirAll(filepath.Join(src, "sub"), 0o755)
	os.WriteFile(filepath.Join(src, "exec.sh"), []byte("x"), 0o755)
	os.WriteFile(filepath.Join(src, "sub", "f"), []byte("y"), 0o644)

	dst := filepath.Join(t.TempDir(), "copy")
	if err := CopyDir(src, dst); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dst, "exec.sh"))
	if err != nil || info.Mode().Perm()&0o111 == 0 {
		t.Errorf("exec bit lost: %v %v", info, err)
	}
	data, err := os.ReadFile(filepath.Join(dst, "sub", "f"))
	if err != nil || string(data) != "y" {
		t.Errorf("nested copy: %q %v", data, err)
	}

	// A file larger than any copy buffer arrives whole, replaces what was
	// there, keeps the source's mode, and leaves no temp file beside it.
	big := bytes.Repeat([]byte("0123456789abcdef"), 20<<10)
	os.WriteFile(filepath.Join(src, "big"), big, 0o640)
	target := filepath.Join(dst, "sub", "f")
	if err := CopyFile(filepath.Join(src, "big"), target); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(target)
	if info, err := os.Stat(target); err != nil || !bytes.Equal(got, big) || info.Mode().Perm() != 0o640 {
		t.Errorf("CopyFile over an existing file: %d bytes, %v, %v", len(got), info, err)
	}
	if err := CopyFile(filepath.Join(src, "missing"), filepath.Join(dst, "sub", "never")); err == nil {
		t.Error("CopyFile of a missing source succeeded")
	}
	if ents, _ := os.ReadDir(filepath.Join(dst, "sub")); len(ents) != 1 {
		t.Errorf("%s holds %d entries after the copies, want the one file", filepath.Join(dst, "sub"), len(ents))
	}
}

// Concurrent WriteFileAtomic callers racing on one destination must each
// leave the file in a complete state — some writer's full payload, never a
// mix or a truncation. This is the property the content-addressed store
// leans on when parallel builders publish the same blob.
func TestWriteFileAtomicConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "artifact")
	const writers = 16
	payloads := make([][]byte, writers)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 64<<10)
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = WriteFileAtomic(dst, payloads[i], 0o644)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	matched := false
	for _, p := range payloads {
		if bytes.Equal(got, p) {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatalf("final file (%d bytes) is not any single writer's payload", len(got))
	}
	// No leaked temp files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leaked temp file %s", e.Name())
		}
	}
}

// Of a file's mode HashDir sees one thing, whether any exec bit is set: the
// part a build carries into a guest image. It sees it for a file path and
// for each file of a tree.
func TestHashDirSeesExecBitsOnly(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "f")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	hash := func(mode os.FileMode) (file, tree string) {
		t.Helper()
		if err := os.Chmod(f, mode); err != nil {
			t.Fatal(err)
		}
		file, err := HashDir(f)
		if err != nil {
			t.Fatal(err)
		}
		tree, err = HashDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return file, tree
	}
	plainFile, plainTree := hash(0o644)
	if plainFile != HashBytes([]byte("x")) {
		t.Errorf("a file without exec bits hashes to %s, want its SHA-256", plainFile)
	}
	if file, tree := hash(0o600); file != plainFile || tree != plainTree {
		t.Error("a read/write mode change alone changed the hash")
	}
	for _, mode := range []os.FileMode{0o755, 0o700, 0o610} {
		if file, tree := hash(mode); file == plainFile || tree == plainTree {
			t.Errorf("mode %o: setting an exec bit left the hash unchanged (file %v, tree %v)", mode, file == plainFile, tree == plainTree)
		}
	}
}
