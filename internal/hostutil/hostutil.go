// Package hostutil provides small host-side helpers shared across the
// FireMarshal reproduction: deterministic content hashing, atomic file
// writes, and execution of host scripts (host-init, post-run hooks).
package hostutil

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// HashBytes returns the hex-encoded SHA-256 of data.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// HashStrings hashes a sequence of strings with length framing so that
// ("ab","c") and ("a","bc") hash differently.
func HashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashFile returns the hex-encoded SHA-256 of the file's contents, read in
// full every time: an independent check of bytes on disk. What a build asks
// goes through FileDigest, which answers from the digest cache.
func HashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sum, _, err := hashReader(f)
	if err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return sum, nil
}

// hashReader streams r through SHA-256.
func hashReader(r io.Reader) (string, int64, error) {
	h := sha256.New()
	n, err := io.Copy(h, r)
	return hex.EncodeToString(h.Sum(nil)), n, err
}

// HashDir hashes a directory tree: the sorted relative paths and contents of
// its files. File modes are not hashed, so a change to a file's exec bit alone
// is not seen — hashing them would change every action key, so it waits for
// a deliberate key change. Missing directories hash to a fixed sentinel so
// callers can treat "not yet created" as a stable state. A regular file hashes
// to its SHA-256 — the digest the content-addressed store files it under.
func HashDir(dir string) (string, error) {
	sum, _, err := HashTree(dir)
	return sum, err
}

// HashTree is HashDir that also reports how many content bytes it read and
// hashed — what the dependency tracker's dag_dep_bytes_hashed_total counts.
// Each file's digest comes from FileDigest, so a file the digest cache knows
// unchanged is not read.
func HashTree(dir string) (string, int64, error) {
	info, err := os.Stat(dir)
	if os.IsNotExist(err) {
		return HashStrings("absent-dir", dir), 0, nil
	}
	if err != nil {
		return "", 0, err
	}
	if !info.IsDir() {
		return fileDigest(dir, info)
	}
	type file struct {
		path string
		info os.FileInfo
	}
	var files []file
	err = filepath.Walk(dir, func(path string, fi os.FileInfo, werr error) error {
		if werr != nil {
			return werr
		}
		if !fi.IsDir() {
			files = append(files, file{path, fi})
		}
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
	h := sha256.New()
	var total int64
	for _, f := range files {
		rel, err := filepath.Rel(dir, f.path)
		if err != nil {
			return "", total, err
		}
		sum, n, err := fileDigest(f.path, f.info)
		total += n
		if err != nil {
			return "", total, err
		}
		fmt.Fprintf(h, "%s\x00%s\x00", rel, sum)
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}

// DetJitter returns a deterministic pseudo-random duration in [0, max),
// hashed from key and attempt — no wall clock, no global RNG. Retry
// paths use it to de-correlate backoff across jobs/clients while keeping
// every schedule bit-reproducible: the same (key, attempt) always jitters
// by the same amount.
func DetJitter(key string, attempt int, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	h := fnv.New64a()
	io.WriteString(h, key)
	fmt.Fprintf(h, "|%d", attempt)
	return time.Duration(h.Sum64() % uint64(max))
}

// WriteFileAtomic writes data to path via a temporary file and rename, so
// readers never observe a partially written artifact.
func WriteFileAtomic(path string, data []byte, mode os.FileMode) error {
	return writeAtomic(filepath.Dir(path), path, bytes.NewReader(data), mode, nil)
}

// WriteFileAtomicVia is WriteFileAtomic with the temporary file in tmpDir
// (same file system as path) instead of beside path: the cas store keeps
// every temp file in one directory, where its GC finds the ones a killed
// writer left.
func WriteFileAtomicVia(tmpDir, path string, data []byte, mode os.FileMode) error {
	return writeAtomic(tmpDir, path, bytes.NewReader(data), mode, nil)
}

// WriteStreamAtomic is WriteFileAtomic with the content read from r, never
// held whole, and a check that runs once every byte is written, before the
// rename: an error from it (or from r) leaves no trace of the write.
func WriteStreamAtomic(path string, r io.Reader, mode os.FileMode, check func() error) error {
	return writeAtomic(filepath.Dir(path), path, r, mode, check)
}

// writeAtomic is the temp-then-rename sequence every write of a whole file in
// the program goes through, with the content taken from a reader: a
// bytes.Reader lands in one Write, a file through the kernel's file-to-file
// copy where there is one.
func writeAtomic(dir, path string, content io.Reader, mode os.FileMode, check func() error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := io.Copy(tmp, content); err != nil {
		return fail(err)
	}
	if check != nil {
		if err := check(); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Chmod(mode); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// ScriptResult captures the outcome of a host script invocation.
type ScriptResult struct {
	Stdout   string
	Stderr   string
	Duration time.Duration
}

// RunHostScript executes a host-side script (host-init or post-run-hook)
// with the given working directory and extra arguments. The script is
// invoked through /bin/sh when it is not executable on its own, matching
// FireMarshal's behaviour of running user-supplied shell scripts.
func RunHostScript(script string, workDir string, args ...string) (*ScriptResult, error) {
	fields := strings.Fields(script)
	if len(fields) == 0 {
		return nil, fmt.Errorf("hostutil: empty script")
	}
	path := fields[0]
	if !filepath.IsAbs(path) {
		path = filepath.Join(workDir, path)
	}
	argv := append(fields[1:], args...)
	var cmd *exec.Cmd
	if fi, err := os.Stat(path); err == nil && fi.Mode()&0o111 != 0 {
		cmd = exec.Command(path, argv...)
	} else {
		cmd = exec.Command("/bin/sh", append([]string{path}, argv...)...)
	}
	cmd.Dir = workDir
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	res := &ScriptResult{Stdout: stdout.String(), Stderr: stderr.String(), Duration: time.Since(start)}
	if err != nil {
		return res, fmt.Errorf("hostutil: script %q failed: %w (stderr: %s)", script, err, strings.TrimSpace(stderr.String()))
	}
	return res, nil
}

// CopyFile copies src to dst, creating parent directories and preserving the
// source's mode bits. The bytes stream through a temp file that is renamed
// into place, so readers never observe a partial copy and the source is
// never held in memory whole.
func CopyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	info, err := in.Stat()
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Dir(dst), dst, in, info.Mode().Perm(), nil)
}

// CopyDir recursively copies a directory tree.
func CopyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, werr error) error {
		if werr != nil {
			return werr
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return CopyFile(path, target)
	})
}
