//go:build !linux

package hostutil

import "os"

// fileKey reports no key where the stat layout is not Linux's: the digest
// cache then never answers, and every digest is read from the file.
func fileKey(os.FileInfo) (fileID, fileStat, bool) { return fileID{}, fileStat{}, false }

// openProbe is never reached where fileKey reports no key.
func openProbe(string) *os.File { return nil }
