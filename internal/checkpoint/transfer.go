package checkpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
)

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

// Push replicates the snapshot ptr names — the checkpoint document cp plus
// every blob it references — from the local store to a remote. After a
// successful Push any machine sharing that remote can Fetch and resume the
// job bit-identically. sent is the caller's record of what this attempt has
// already uploaded: successive snapshots share every page the guest did not
// dirty in between, and those are not sent again.
func Push(ctx context.Context, store *cas.Store, rem cas.Remote, ptr *Pointer, cp *Checkpoint, sent map[string]bool) error {
	for _, digest := range append(cp.Refs(), ptr.Digest) {
		if sent[digest] {
			continue
		}
		data, err := store.Get(digest)
		if err == nil {
			err = cas.PutBlob(ctx, rem, digest, data)
		}
		if err != nil {
			return fmt.Errorf("checkpoint: job %s: pushing %s: %w", ptr.Job, digest[:12], err)
		}
		sent[digest] = true
	}
	return nil
}

// Fetch materializes the checkpoint ptr names into the local store: the
// checkpoint document first (it lists everything else), then every
// referenced blob not already present locally. On success the local store
// can restore the job exactly as the pushing machine would have.
func Fetch(ctx context.Context, store *cas.Store, rem cas.Remote, ptr *Pointer) error {
	if err := cas.FetchBlob(ctx, store, rem, ptr.Digest); err != nil {
		return fmt.Errorf("checkpoint: job %s: fetching %s: %w", ptr.Job, ptr.Digest[:12], err)
	}
	cp, err := Load(store, ptr)
	if err != nil {
		return err
	}
	for _, digest := range cp.Refs() {
		if err := cas.FetchBlob(ctx, store, rem, digest); err != nil {
			return fmt.Errorf("checkpoint: job %s: fetching %s: %w", ptr.Job, digest[:12], err)
		}
	}
	return nil
}
