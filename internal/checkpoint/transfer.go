package checkpoint

import (
	"context"
	"fmt"

	"firemarshal/internal/cas"
)

// Push replicates the snapshot cp from the local store to a remote: every
// blob it references that sent does not have yet — for each snapshot after
// an attempt's first, the one new pack, plus the console of an exec that
// completed in between. After a successful Push any machine sharing that
// remote can Fetch and resume the job bit-identically. sent is the caller's
// record of what is on the remote already: what this attempt uploaded, and
// what it fetched from there to begin with.
func Push(ctx context.Context, store *cas.Store, rem cas.Remote, cp *Checkpoint, sent map[string]bool) error {
	for _, digest := range cp.Refs() {
		if sent[digest] {
			continue
		}
		data, err := store.Get(digest)
		if err == nil {
			err = cas.PutBlob(ctx, rem, digest, data)
		}
		if err != nil {
			return fmt.Errorf("checkpoint: job %s: pushing %.12s: %w", cp.Job, digest, err)
		}
		sent[digest] = true
	}
	return nil
}

// Fetch materializes the checkpoint ptr names into the local store: its
// pack first (the page table lists everything else), then every referenced
// blob not already present locally. On success the local store can restore
// the job exactly as the pushing machine would have, and the returned
// checkpoint's Refs are all on the remote.
func Fetch(ctx context.Context, store *cas.Store, rem cas.Remote, ptr *Pointer) (*Checkpoint, error) {
	if err := cas.FetchBlob(ctx, store, rem, ptr.Digest); err != nil {
		return nil, fmt.Errorf("checkpoint: job %s: fetching %.12s: %w", ptr.Job, ptr.Digest, err)
	}
	cp, err := Load(store, ptr)
	if err != nil {
		return nil, err
	}
	for _, digest := range cp.Refs() {
		if err := cas.FetchBlob(ctx, store, rem, digest); err != nil {
			return nil, fmt.Errorf("checkpoint: job %s: fetching %.12s: %w", ptr.Job, digest, err)
		}
	}
	return cp, nil
}
