package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"firemarshal/internal/hostutil"
)

// Pointer names a job's latest snapshot. The pointer file is append-only,
// one JSON line per snapshot; the last line that parses is the pointer, so
// an append torn by a crash leaves the previous snapshot in force.
type Pointer struct {
	Job     string `json:"job"`
	Digest  string `json:"digest"`
	Exec    int    `json:"exec"`
	Instret uint64 `json:"instret"`
}

// PointerPath returns the pointer file path for a job. Path separators
// in job names are flattened so every pointer stays inside dir.
func PointerPath(dir, job string) string {
	safe := strings.NewReplacer("/", "_", string(filepath.Separator), "_").Replace(job)
	return filepath.Join(dir, safe+".ckpt.json")
}

// errNoPointerLine is LoadPointer's answer for a file none of whose lines is
// a pointer. It is fs.ErrNotExist to callers that only ask whether there is
// a pointer to follow.
var errNoPointerLine error = noPointerLine{}

type noPointerLine struct{}

func (noPointerLine) Error() string        { return "no intact pointer line" }
func (noPointerLine) Is(target error) bool { return target == fs.ErrNotExist }

// pointerTail is how much of a pointer file LoadPointer reads first: room
// for a couple of dozen lines, of which it wants the last.
const pointerTail = 4096

// LoadPointer reads a pointer file's last intact line, from the tail. A
// missing file, or one with no intact line, is fs.ErrNotExist: there is no
// pointer there.
func LoadPointer(path string) (*Pointer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	for n := min(size, pointerTail); ; n = size {
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, size-n); err != nil && err != io.EOF {
			return nil, err
		}
		if p := lastPointer(buf); p != nil {
			return p, nil
		}
		if n == size {
			return nil, fmt.Errorf("checkpoint: %s: %w", path, errNoPointerLine)
		}
	}
}

// lastPointer returns the last line of data that is a pointer, nil if none
// is. A line cut short at either end is not JSON, so a window into the file
// needs no alignment.
func lastPointer(data []byte) *Pointer {
	var last *Pointer
	hostutil.SalvageLines(data, func(line []byte) error {
		var p Pointer
		if err := json.Unmarshal(line, &p); err != nil {
			return err
		}
		if p.Job == "" || p.Digest == "" {
			return errors.New("not a pointer")
		}
		last = &p
		return nil
	})
	return last
}

// appendPointer makes ptr the last line of the pointer file at path. The
// line goes out in one write with a newline on both sides, so a torn tail
// left by a killed writer cannot swallow it.
func appendPointer(path string, ptr *Pointer) error {
	line, err := json.Marshal(ptr)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: job %s: writing pointer: %w", ptr.Job, err)
	}
	_, err = f.Write(append(append([]byte{'\n'}, line...), '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: job %s: writing pointer: %w", ptr.Job, err)
	}
	return nil
}

// WritePointer makes ptr the job's latest checkpoint for any runtime opened
// against dir, by the same append a snapshot does. Coordinators use it to
// persist pointers streamed from workers (so their own -resume path sees
// them), and workers use it to stage a handed-off checkpoint before
// opening the job with resume set.
func WritePointer(dir string, ptr *Pointer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return appendPointer(PointerPath(dir, ptr.Job), ptr)
}

// Pointers lists every pointer file under dir (no dir is an empty list).
func Pointers(dir string) ([]*Pointer, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []*Pointer
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt.json") {
			continue
		}
		p, err := LoadPointer(filepath.Join(dir, e.Name()))
		if err != nil {
			// A garbled pointer means that job resumes from scratch; it
			// must not fail every other job's listing.
			continue
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out, nil
}

// Clear removes the job's pointer file — called once the job's final
// status is durable in the journal, so the GC may reclaim its blobs.
func Clear(dir, job string) error {
	err := os.Remove(PointerPath(dir, job))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
