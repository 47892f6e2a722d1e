package checkpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
)

// transfer is the per-blob retry policy of Push/Fetch. Checkpoint
// replication is the lease-handoff backbone, so a single dropped request
// must not forfeit a handoff.
var transfer = hostutil.Retry{Attempts: 3, Transport: true}

// WritePointer atomically installs a pointer file under dir, making ptr the
// job's latest checkpoint for any runtime opened against that directory.
// Coordinators use it to persist pointers streamed from workers (so their
// own -resume path sees them), and workers use it to stage a handed-off
// checkpoint before opening the job with resume set.
func WritePointer(dir string, ptr *Pointer) error {
	pdata, err := json.MarshalIndent(ptr, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := hostutil.WriteFileAtomic(PointerPath(dir, ptr.Job), pdata, 0o644); err != nil {
		return fmt.Errorf("checkpoint: job %s: writing pointer: %w", ptr.Job, err)
	}
	return nil
}

// pushBlob uploads one blob, streamed from the store's on-disk file (the
// HTTP client sends large payloads as resumable chunks). Checkpoint memory
// pages are the largest blobs marshal moves, so this is the path that must
// not hold gigabytes on the heap.
func pushBlob(ctx context.Context, store *cas.Store, rem cas.Remote, digest string) error {
	path, err := store.BlobFilePath(digest)
	if err != nil {
		return err
	}
	return rem.PutBlobFile(ctx, digest, path)
}

// fetchBlob downloads one blob into the store, streaming end-to-end: the
// verified stream feeds Store.PutStream, which hashes into a temp file —
// the blob never exists whole in memory.
func fetchBlob(ctx context.Context, store *cas.Store, rem cas.Remote, digest string) error {
	rc, _, err := rem.GetBlobStream(ctx, digest)
	if err != nil {
		return err
	}
	_, perr := store.PutStream(digest, rc)
	if cerr := rc.Close(); perr == nil {
		perr = cerr
	}
	return perr
}

// Push replicates the checkpoint ptr names — the checkpoint document plus
// every blob it references — from the local store to a remote. After a
// successful Push any machine sharing that remote can Fetch and resume the
// job bit-identically. Blobs are uploaded unconditionally; the server
// content-addresses them, so re-pushing an unchanged page is idempotent.
func Push(ctx context.Context, store *cas.Store, rem cas.Remote, ptr *Pointer) error {
	cp, err := Load(store, ptr)
	if err != nil {
		return err
	}
	for _, digest := range append(cp.Refs(), ptr.Digest) {
		if err := transfer.Do(ctx, digest, func() error { return pushBlob(ctx, store, rem, digest) }); err != nil {
			return fmt.Errorf("checkpoint: job %s: pushing %s: %w", ptr.Job, digest[:12], err)
		}
	}
	return nil
}

// Fetch materializes the checkpoint ptr names into the local store: the
// checkpoint document first (it lists everything else), then every
// referenced blob not already present locally. On success the local store
// can restore the job exactly as the pushing machine would have.
func Fetch(ctx context.Context, store *cas.Store, rem cas.Remote, ptr *Pointer) error {
	err := transfer.Do(ctx, ptr.Digest, func() error { return fetchBlob(ctx, store, rem, ptr.Digest) })
	if err != nil {
		return fmt.Errorf("checkpoint: job %s: fetching %s: %w", ptr.Job, ptr.Digest[:12], err)
	}
	cp, err := Load(store, ptr)
	if err != nil {
		return err
	}
	for _, digest := range cp.Refs() {
		if store.Has(digest) {
			continue
		}
		err := transfer.Do(ctx, digest, func() error { return fetchBlob(ctx, store, rem, digest) })
		if err != nil {
			return fmt.Errorf("checkpoint: job %s: fetching %s: %w", ptr.Job, digest[:12], err)
		}
	}
	return nil
}
