package cas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"firemarshal/internal/hostutil"
)

// layoutVersion is the store layout this binary reads and writes; the
// action log's first line announces it. See DESIGN.md "Store layout v3".
const layoutVersion = 3

// actionLog is a store's action cache: one append-only file,
// <dir>/actions, one record per line —
//
//	<crc32 of the rest, 8 hex digits> <append time, unix ns> <compact JSON>
//
// — where the JSON is a cas.Action, or {"layout":N} on the header line.
// A record is appended with one write(2) on an O_APPEND descriptor, so
// handles and processes sharing a store interleave whole records, and it
// starts on a fresh line, so the tail a crash tore never swallows the
// record after it. The reader is hostutil.SalvageLines: a line that fails
// its CRC or does not parse is skipped and counted, never fatal. For one
// key the last record in the file wins.
//
// Lookups are answered from an in-memory index that a miss brings up to
// date (one fstat; complete lines only, so an append in flight is never
// half-read). Compaction rewrites the file under an exclusive flock that
// every appender takes shared, and renames the new file over the old;
// other handles notice that theirs has no link left and reopen.
type actionLog struct {
	path string

	mu    sync.Mutex
	f     *os.File          // O_RDWR|O_APPEND; the finalizer closes it with the Store
	off   int64             // bytes of f folded into recs; always a line boundary
	recs  map[string]logRec // key → its last record
	waste int               // lines folded that back no entry of recs: superseded or unreadable
}

type logRec struct {
	at int64 // append time, unix nanoseconds: what GC's written-after-snapshot guard reads
	a  Action
}

func cloneAction(a *Action) Action {
	c := *a
	c.Outputs = append([]Output(nil), a.Outputs...)
	return c
}

// sameRecord reports whether two records for one key say the same thing.
func sameRecord(a, b *Action) bool {
	if a.Task != b.Task || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	return true
}

// frame appends one log line for payload to dst.
func frame(dst []byte, at int64, payload []byte) []byte {
	rest := fmt.Appendf(nil, "%d %s", at, payload)
	return fmt.Appendf(dst, "%08x %s\n", crc32.ChecksumIEEE(rest), rest)
}

func headerLine() []byte {
	return frame(nil, time.Now().UnixNano(), fmt.Appendf(nil, `{"layout":%d}`, layoutVersion))
}

// logLine is what one line decodes to: a record, or the layout header.
type logLine struct {
	Layout int `json:"layout"`
	Action
}

// parseLine checks a line's frame and decodes it.
func parseLine(line []byte) (at int64, rec logLine, err error) {
	sum, rest, _ := bytes.Cut(line, []byte(" "))
	want, err := strconv.ParseUint(string(sum), 16, 32)
	if err != nil || len(sum) != 8 {
		return 0, rec, errors.New("not a framed record")
	}
	if crc32.ChecksumIEEE(rest) != uint32(want) {
		return 0, rec, errors.New("crc mismatch")
	}
	stamp, payload, _ := bytes.Cut(rest, []byte(" "))
	if at, err = strconv.ParseInt(string(stamp), 10, 64); err != nil {
		return 0, rec, errors.New("record without an append time")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, rec, err
	}
	if rec.Layout == 0 && !validDigest(rec.Key) {
		return 0, rec, errors.New("record without a valid key")
	}
	return at, rec, nil
}

// note indexes one record. A handle indexes its own appends as it makes
// them and reads them back on its next refresh; that echo is not a second
// record.
func (l *actionLog) note(at int64, a Action) {
	if cur, ok := l.recs[a.Key]; ok {
		if cur.at == at && sameRecord(&cur.a, &a) {
			return
		}
		l.waste++
	}
	l.recs[a.Key] = logRec{at: at, a: a}
}

// fold reads the log from l.off up to size and indexes every complete
// line, reporting the unreadable ones. A header announcing a layout this
// binary does not know is the one fatal finding.
func (l *actionLog) fold(size int64) (*hostutil.Torn, error) {
	if size <= l.off {
		return nil, nil
	}
	buf := make([]byte, size-l.off)
	n, err := l.f.ReadAt(buf, l.off)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("cas: reading action log: %w", err)
	}
	buf = buf[:bytes.LastIndexByte(buf[:n], '\n')+1]
	var newer error
	torn := hostutil.SalvageLines(buf, func(line []byte) error {
		at, rec, err := parseLine(line)
		switch {
		case err != nil:
			return err
		case rec.Layout > layoutVersion:
			newer = fmt.Errorf("cas: %s is store layout %d; this binary reads up to layout %d", l.path, rec.Layout, layoutVersion)
		case rec.Layout == 0:
			l.note(at, rec.Action)
		}
		return nil
	})
	l.off += int64(len(buf))
	if torn != nil {
		l.waste += torn.Lines
	}
	return torn, newer
}

// reopen opens whatever file is at l.path now (creating the log of a fresh
// store, header first) and indexes it from the top, reporting every
// unreadable line in it.
func (l *actionLog) reopen() (*hostutil.Torn, error) {
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cas: opening action log: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("cas: opening action log: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.off, l.recs, l.waste = f, 0, map[string]logRec{}, 0
	if fi.Size() == 0 {
		// Two processes creating one store at once both write a header;
		// a second one is skipped like the first.
		if _, err := f.Write(headerLine()); err != nil {
			return nil, fmt.Errorf("cas: writing action log: %w", err)
		}
		return nil, nil
	}
	return l.fold(fi.Size())
}

// replaced reports that the open file is no longer <dir>/actions: a
// compaction renamed a new file over it, or it was deleted.
func replaced(fi os.FileInfo) bool {
	st, ok := fi.Sys().(*syscall.Stat_t)
	return ok && st.Nlink == 0
}

// refresh folds in what the log gained since this handle last looked —
// how `cache serve` sees what a sibling `marshal build` just published.
func (l *actionLog) refresh() error {
	fi, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("cas: reading action log: %w", err)
	}
	if replaced(fi) || fi.Size() < l.off {
		_, err = l.reopen()
		return err
	}
	_, err = l.fold(fi.Size())
	return err
}

func flock(f *os.File, how int) error {
	for {
		if err := syscall.Flock(int(f.Fd()), how); err != syscall.EINTR {
			return err
		}
	}
}

// lock takes the log's flock — shared to append, exclusive to compact —
// on the file that is <dir>/actions at that moment: a descriptor whose
// file a compaction replaced while it waited is reopened and locked again,
// so no record is ever appended to a file nothing reads. Caller holds
// l.mu, which also keeps one handle's goroutines from sharing (and
// dropping) each other's flock.
func (l *actionLog) lock(how int) error {
	for {
		if err := flock(l.f, how); err != nil {
			return fmt.Errorf("cas: locking action log: %w", err)
		}
		fi, err := l.f.Stat()
		if err == nil && !replaced(fi) {
			return nil
		}
		l.unlock()
		if err != nil {
			return fmt.Errorf("cas: locking action log: %w", err)
		}
		if _, err := l.reopen(); err != nil {
			return err
		}
	}
}

func (l *actionLog) unlock() { flock(l.f, syscall.LOCK_UN) }

func (l *actionLog) get(key string) (*Action, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.recs[key]
	if !ok {
		if err := l.refresh(); err != nil {
			return nil, err
		}
		if rec, ok = l.recs[key]; !ok {
			return nil, fmt.Errorf("cas: action %s: %w", key, ErrNotFound)
		}
	}
	a := cloneAction(&rec.a)
	return &a, nil
}

// put appends a's record. Putting what the index already holds for the key
// is a no-op — decided under the lock, on a file known to be current, so a
// record another process's compaction dropped is written again rather
// than believed present.
func (l *actionLog) put(a *Action) error {
	payload, err := json.Marshal(a)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.lock(syscall.LOCK_SH); err != nil {
		return err
	}
	defer l.unlock()
	if cur, ok := l.recs[a.Key]; ok && sameRecord(&cur.a, a) {
		return nil
	}
	at := time.Now().UnixNano()
	if _, err := l.f.Write(frame([]byte{'\n'}, at, payload)); err != nil {
		return fmt.Errorf("cas: writing action %s: %w", a.Key, err)
	}
	l.note(at, cloneAction(a))
	return nil
}

// all returns every record, sorted by key.
func (l *actionLog) all() ([]*Action, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refresh(); err != nil {
		return nil, err
	}
	out := make([]*Action, 0, len(l.recs))
	for _, rec := range l.recs {
		a := cloneAction(&rec.a)
		out = append(out, &a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// check re-reads the whole log and reports its unreadable lines.
func (l *actionLog) check() (*hostutil.Torn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reopen()
}

// compact drops the records keep refuses, and whatever else the file
// carries beyond one line per key, by writing the survivors to a temp file
// in tmpDir and renaming it over the log. It holds the flock exclusively
// from reading the last record to the rename, so a record appended by any
// handle or process is in the snapshot or lands in the new file. It
// returns the digests the surviving records reference and how many records
// keep refused. A log with nothing to drop is left alone.
func (l *actionLog) compact(tmpDir string, keep func(key string, at int64) bool) (referenced map[string]bool, removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.lock(syscall.LOCK_EX); err != nil {
		return nil, 0, err
	}
	defer flock(l.f, syscall.LOCK_UN) // a no-op after a rewrite: reopen closed this file, which released it
	// Under the exclusive lock no append is in flight: what the file holds
	// now is the snapshot, and a tail without its newline is torn for good.
	fi, err := l.f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("cas: reading action log: %w", err)
	}
	if _, err := l.fold(fi.Size()); err != nil {
		return nil, 0, err
	}
	referenced = map[string]bool{}
	var keys []string
	for key, rec := range l.recs {
		if !keep(key, rec.at) {
			removed++
			continue
		}
		keys = append(keys, key)
		for _, o := range rec.a.Outputs {
			referenced[o.Digest] = true
		}
	}
	if removed == 0 && l.waste == 0 {
		return referenced, 0, nil
	}
	sort.Strings(keys)
	buf := headerLine()
	for _, key := range keys {
		rec := l.recs[key]
		payload, err := json.Marshal(&rec.a)
		if err != nil {
			return nil, 0, err
		}
		buf = frame(buf, rec.at, payload)
	}
	if err := hostutil.WriteFileAtomicVia(tmpDir, l.path, buf, 0o644); err != nil {
		return nil, 0, fmt.Errorf("cas: compacting action log: %w", err)
	}
	_, err = l.reopen()
	return referenced, removed, err
}
