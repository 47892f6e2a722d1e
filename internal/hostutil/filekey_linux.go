package hostutil

import (
	"os"
	"syscall"
)

// fileKey is what the digest cache keys and checks a regular file by.
func fileKey(fi os.FileInfo) (fileID, fileStat, bool) {
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok || !fi.Mode().IsRegular() {
		return fileID{}, fileStat{}, false
	}
	return fileID{uint64(st.Dev), uint64(st.Ino)}, fileStat{int64(st.Size), st.Mtim.Nano(), st.Ctim.Nano()}, true
}

// oTmpfile is O_TMPFILE, which the syscall package does not name on every
// architecture: __O_TMPFILE, the same on every Linux port Go has, with
// O_DIRECTORY.
const oTmpfile = 0o20000000 | syscall.O_DIRECTORY

// openProbe opens a file no directory lists on dir's file system, for the
// digest cache's timestamps, or returns nil. A file system without
// O_TMPFILE gets a named file, unlinked as soon as it exists.
func openProbe(dir string) *os.File {
	if f, err := os.OpenFile(dir, os.O_RDWR|oTmpfile, 0o600); err == nil {
		return f
	}
	f, err := os.CreateTemp(dir, ".digest-probe-*")
	if err != nil {
		return nil
	}
	os.Remove(f.Name())
	return f
}
