// Package fsimg implements the filesystem images FireMarshal builds and
// manipulates: the rootfs disk image and the initramfs. Where the original
// tool manipulated ext4 images and cpio archives through guestmount and
// friends, this reproduction uses a deterministic in-memory filesystem tree
// with two interchange codecs: a compact binary image format ("MFS1") used
// for rootfs disk images, and a real cpio(newc) encoder/decoder used for the
// initramfs, matching the Linux kernel's initramfs format.
//
// Determinism matters: the paper's central claim is that the exact same
// artifacts run on every simulator, so images must serialize to identical
// bytes for identical logical contents. All codecs emit entries in sorted
// path order with no timestamps.
package fsimg

import (
	"fmt"
	"path"
	"sort"
	"strings"

	"firemarshal/internal/hostutil"
)

// File is a node in the filesystem tree: either a regular file with Data or
// a directory with Children.
//
// Data is immutable once a File holds it: a file's content changes only by
// WriteFile putting a new File (with a private copy of its argument) in the
// directory, never by writing into, appending to or re-slicing-and-writing an
// existing Data. That is what lets Clone share the slices between images and
// Decode hand out slices of the buffer it was given; code outside this
// package reads Data and must not write it (one_way_test.go checks).
type File struct {
	Mode     uint32 // permission bits plus the directory flag (ModeDir)
	Data     []byte
	Children map[string]*File
}

// Mode flags. Only the distinctions the simulated OS cares about are kept.
const (
	ModeDir  = 0o040000
	ModeExec = 0o111
)

// IsDir reports whether the node is a directory.
func (f *File) IsDir() bool { return f.Mode&ModeDir != 0 }

// IsExec reports whether any execute bit is set.
func (f *File) IsExec() bool { return f.Mode&ModeExec != 0 }

// FS is a complete filesystem image rooted at "/".
type FS struct {
	Root *File
	// SizeLimit, when non-zero, is the logical image capacity in bytes
	// (the workload option "rootfs-size"). Writes that would exceed it fail,
	// reproducing the fixed-size disk images of the original tool.
	SizeLimit int64
}

// New returns an empty filesystem image.
func New() *FS {
	return &FS{Root: &File{Mode: ModeDir | 0o755, Children: map[string]*File{}}}
}

// clean canonicalizes p to an absolute slash path without trailing slash.
func clean(p string) (string, error) {
	if p == "" {
		return "", fmt.Errorf("fsimg: empty path")
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	for _, part := range strings.Split(p, "/") {
		if part == ".." {
			return "", fmt.Errorf("fsimg: path %q escapes root", p)
		}
	}
	return path.Clean(p), nil
}

// Lookup returns the node at path p, or nil if absent.
func (fs *FS) Lookup(p string) *File {
	cp, err := clean(p)
	if err != nil {
		return nil
	}
	if cp == "/" {
		return fs.Root
	}
	cur := fs.Root
	for _, part := range strings.Split(strings.TrimPrefix(cp, "/"), "/") {
		if cur == nil || !cur.IsDir() {
			return nil
		}
		cur = cur.Children[part]
	}
	return cur
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string, perm uint32) error {
	cp, err := clean(p)
	if err != nil {
		return err
	}
	if cp == "/" {
		return nil
	}
	cur := fs.Root
	for _, part := range strings.Split(strings.TrimPrefix(cp, "/"), "/") {
		next, ok := cur.Children[part]
		if !ok {
			next = &File{Mode: ModeDir | (perm & 0o777), Children: map[string]*File{}}
			cur.Children[part] = next
		} else if !next.IsDir() {
			return fmt.Errorf("fsimg: %q: path component is a file", p)
		}
		cur = next
	}
	return nil
}

// WriteFile creates or replaces the file at p, creating parent directories.
// The image keeps a private copy of data.
func (fs *FS) WriteFile(p string, data []byte, perm uint32) error {
	cp, err := cleanFilePath(p)
	if err != nil {
		return err
	}
	if fs.SizeLimit > 0 {
		delta := int64(len(data))
		if old := fs.Lookup(cp); old != nil && !old.IsDir() {
			delta -= int64(len(old.Data))
		}
		if fs.TotalBytes()+delta > fs.SizeLimit {
			return fmt.Errorf("fsimg: writing %q (%d bytes) exceeds image size limit %d", p, len(data), fs.SizeLimit)
		}
	}
	return fs.place(cp, append([]byte(nil), data...), perm)
}

// cleanFilePath is clean for a path that is to hold a file.
func cleanFilePath(p string) (string, error) {
	cp, err := clean(p)
	if err == nil && cp == "/" {
		err = fmt.Errorf("fsimg: cannot write to /")
	}
	return cp, err
}

// place puts a file whose content is data itself — the image takes the slice
// over — at the cleaned path cp, with no size-limit check.
func (fs *FS) place(cp string, data []byte, perm uint32) error {
	dir, base := path.Split(cp)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	parent := fs.Lookup(dir)
	if existing, ok := parent.Children[base]; ok && existing.IsDir() {
		return fmt.Errorf("fsimg: %q is a directory", cp)
	}
	parent.Children[base] = &File{Mode: perm & 0o7777, Data: data}
	return nil
}

// ReadFile returns the contents of the file at p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	f := fs.Lookup(p)
	if f == nil {
		return nil, fmt.Errorf("fsimg: %q: no such file", p)
	}
	if f.IsDir() {
		return nil, fmt.Errorf("fsimg: %q is a directory", p)
	}
	return append([]byte(nil), f.Data...), nil
}

// Remove deletes the file or (recursively) the directory at p.
func (fs *FS) Remove(p string) error {
	cp, err := clean(p)
	if err != nil {
		return err
	}
	if cp == "/" {
		return fmt.Errorf("fsimg: cannot remove /")
	}
	dir, base := path.Split(cp)
	parent := fs.Lookup(dir)
	if parent == nil || !parent.IsDir() {
		return fmt.Errorf("fsimg: %q: no such file", p)
	}
	if _, ok := parent.Children[base]; !ok {
		return fmt.Errorf("fsimg: %q: no such file", p)
	}
	delete(parent.Children, base)
	return nil
}

// List returns the sorted child names of the directory at p.
func (fs *FS) List(p string) ([]string, error) {
	f := fs.Lookup(p)
	if f == nil {
		return nil, fmt.Errorf("fsimg: %q: no such directory", p)
	}
	if !f.IsDir() {
		return nil, fmt.Errorf("fsimg: %q is not a directory", p)
	}
	names := make([]string, 0, len(f.Children))
	for name := range f.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Walk visits every node in sorted path order. Directories are visited
// before their children. The root itself is not visited.
func (fs *FS) Walk(fn func(p string, f *File) error) error {
	return walk(fs.Root, "", fn)
}

func walk(dir *File, prefix string, fn func(string, *File) error) error {
	names := make([]string, 0, len(dir.Children))
	for name := range dir.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		child := dir.Children[name]
		p := prefix + "/" + name
		if err := fn(p, child); err != nil {
			return err
		}
		if child.IsDir() {
			if err := walk(child, p, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns an independent image, used when a child workload's image
// starts from a copy of its parent's image (build step 5a in the paper).
// The tree — every File and directory map — is copied, so writes, removals
// and mode changes through either image never show in the other; the file
// contents are shared, which File.Data's immutability makes safe.
func (fs *FS) Clone() *FS {
	return &FS{Root: cloneFile(fs.Root), SizeLimit: fs.SizeLimit}
}

func cloneFile(f *File) *File {
	nf := &File{Mode: f.Mode, Data: f.Data}
	if f.Children != nil {
		nf.Children = make(map[string]*File, len(f.Children))
		for name, child := range f.Children {
			nf.Children[name] = cloneFile(child)
		}
	}
	return nf
}

// Overlay copies every node of src into fs, overwriting existing files.
// This implements the workload "overlay" option.
func (fs *FS) Overlay(src *FS) error {
	return src.Walk(func(p string, f *File) error {
		if f.IsDir() {
			return fs.MkdirAll(p, f.Mode&0o777)
		}
		return fs.WriteFile(p, f.Data, f.Mode)
	})
}

// TotalBytes returns the sum of all file sizes.
func (fs *FS) TotalBytes() int64 {
	var total int64
	fs.Walk(func(_ string, f *File) error {
		if !f.IsDir() {
			total += int64(len(f.Data))
		}
		return nil
	})
	return total
}

// NumFiles returns the number of regular files in the image.
func (fs *FS) NumFiles() int {
	n := 0
	fs.Walk(func(_ string, f *File) error {
		if !f.IsDir() {
			n++
		}
		return nil
	})
	return n
}

// Hash returns a deterministic content hash of the whole image, used by the
// dependency tracker and by the artifact-identity tests.
func (fs *FS) Hash() string {
	var parts []string
	fs.Walk(func(p string, f *File) error {
		if f.IsDir() {
			parts = append(parts, fmt.Sprintf("d:%s:%o", p, f.Mode))
		} else {
			parts = append(parts, fmt.Sprintf("f:%s:%o:%s", p, f.Mode, hostutil.HashBytes(f.Data)))
		}
		return nil
	})
	return hostutil.HashStrings(parts...)
}
