package cas

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"firemarshal/internal/hostutil"
)

// migrate brings a layout 1 (flat files) or layout 2 (256-way shard
// directories) store to layout 3, once, at Open; nothing reads an old
// layout through a second code path. Blobs are renamed up into blobs/,
// every actions/**.json is folded into a log that is renamed to
// actions.new when complete, the old actions/ tree is removed, and
// actions.new is renamed to actions. Each step is an atomic rename or is
// redone from scratch, so the next Open finishes a migration a crash cut
// short, and processes opening one old store at once take turns (a flock
// on the store directory). On a fresh or already-migrated store it finds
// nothing to do.
func migrate(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // and with it the flock
	if err := flock(d, syscall.LOCK_EX); err != nil {
		return err
	}
	blobs, old, folded := filepath.Join(dir, "blobs"), filepath.Join(dir, "actions"), filepath.Join(dir, "actions.new")
	if _, err := os.Stat(folded); err != nil {
		if fi, err := os.Stat(old); err != nil || !fi.IsDir() {
			return nil
		}
		if err := flattenBlobs(blobs); err != nil {
			return err
		}
		if err := foldActionFiles(old, folded, blobs); err != nil {
			return err
		}
	}
	// actions.new only ever exists whole, so from here the old tree is spare.
	if fi, err := os.Stat(old); err == nil && fi.IsDir() {
		if err := os.RemoveAll(old); err != nil {
			return err
		}
	}
	return os.Rename(folded, old)
}

// flattenBlobs renames blobs/<aa>/<digest> up to blobs/<digest> and removes
// the shard directories, with whatever temp files a killed writer left in
// them. Layout 1 blobs are already where layout 3 wants them.
func flattenBlobs(root string) error {
	shards, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		blobs, err := os.ReadDir(filepath.Join(root, shard.Name()))
		if err != nil {
			return err
		}
		for _, b := range blobs {
			if !validDigest(b.Name()) {
				continue
			}
			err := os.Rename(filepath.Join(root, shard.Name(), b.Name()), filepath.Join(root, b.Name()))
			if err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		if err := os.RemoveAll(filepath.Join(root, shard.Name())); err != nil {
			return err
		}
	}
	return nil
}

// foldActionFiles writes every readable <key>.json under old — sharded or
// not — as one record of a new log at dst, stamped with the file's mtime
// (what GC's written-after-snapshot guard read in the old layouts).
func foldActionFiles(old, dst, tmpDir string) error {
	buf := headerLine()
	err := filepath.Walk(old, func(path string, fi fs.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var a Action
		if json.Unmarshal(data, &a) != nil || !validDigest(a.Key) {
			return nil // a mangled entry was a miss in the old layouts too
		}
		payload, err := json.Marshal(&a)
		if err != nil {
			return err
		}
		buf = frame(buf, fi.ModTime().UnixNano(), payload)
		return nil
	})
	if err != nil {
		return fmt.Errorf("folding %s: %w", old, err)
	}
	return hostutil.WriteFileAtomicVia(tmpDir, dst, buf, 0o644)
}
