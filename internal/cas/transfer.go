package cas

import (
	"context"

	"firemarshal/internal/hostutil"
)

// transfer is the retry policy of blob traffic that goes straight to a
// Remote rather than through a Cache's breaker — job artifacts, consoles and
// outputs, checkpoints, farm manifests: a single dropped request must not
// abort a fleet launch before it starts, lose a finished job's console or
// forfeit a checkpoint handoff. A torn transfer is retried whole;
// content-addressed PUTs are idempotent.
var transfer = hostutil.Retry{Attempts: 4, Transport: true}

// PutBlob is rem.PutBlob under the transfer policy.
func PutBlob(ctx context.Context, rem Remote, digest string, data []byte) error {
	return transfer.Do(ctx, digest, func() error { return rem.PutBlob(ctx, digest, data) })
}

// GetBlob is rem.GetBlob under the transfer policy.
func GetBlob(ctx context.Context, rem Remote, digest string) (data []byte, err error) {
	err = transfer.Do(ctx, digest, func() error {
		data, err = rem.GetBlob(ctx, digest)
		return err
	})
	return data, err
}

// FetchBlob makes blob digest present in store, by GetBlob when it is not:
// the bytes are filed under the digest the remote already checked them
// against, not hashed a second time.
func FetchBlob(ctx context.Context, store *Store, rem Remote, digest string) error {
	if store.Has(digest) {
		return nil
	}
	data, err := GetBlob(ctx, rem, digest)
	if err != nil {
		return err
	}
	return store.put(digest, data)
}
