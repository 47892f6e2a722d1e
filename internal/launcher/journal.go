package launcher

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"firemarshal/internal/hostutil"
)

// This file makes runs crash-safe at the manifest level. The launcher
// used to report results only through the end-of-run atomic manifest
// (manifest.go): a host crash at hour N of a multi-hour sweep discarded
// every completed job. The journal fixes that by appending one fsynced
// JSONL record per job event as it happens; the atomic manifest is then
// merely a compaction of the journal. A reader salvages everything up to
// (and excluding) a record torn by a crash mid-append, so `-resume` can
// reconstruct which jobs finished, which were in flight, and which never
// started.

// Journal event kinds.
const (
	// EventStart records that a job attempt began.
	EventStart = "start"
	// EventDone records a job's terminal result (a full manifest Record).
	EventDone = "done"
)

// JournalRecord is one line of the run journal: either a start marker for
// a job attempt or a done marker embedding the job's manifest Record.
type JournalRecord struct {
	Event string `json:"event"`
	// Seq is a monotonically increasing sequence number; concurrent
	// workers interleave, so order on disk is completion order, not
	// declaration order.
	Seq int `json:"seq"`
	// Attempt is set on start events (1-based).
	Attempt int `json:"attempt,omitempty"`
	Record
}

// Journal is an append-only, fsync-per-record run log. Appends are
// serialized internally; the launcher's workers share one Journal.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	seq int
}

// OpenJournal opens (creating if needed) the journal at path for
// appending. An interrupted run's journal is appended to, not truncated,
// so a resumed run's records land after the originals.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

// Append writes one record and fsyncs it. The write is a single
// newline-terminated line, so a crash can tear at most the final record
// — exactly what ReadJournal salvages around.
func (j *Journal) Append(rec JournalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rec.Seq = j.seq
	j.seq++
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// AppendLine marshals an arbitrary value as one fsynced JSONL line —
// the journal's durability semantics (append-only, at most the final
// record torn by a crash) for record types other than JournalRecord.
// The verification farm writes its per-entry manifest through this, so
// farm manifests survive crashes exactly like run journals do. Lines
// appended this way carry no sequence number; ordering is append order.
func (j *Journal) AppendLine(v any) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// ReadLines parses any JSONL file with the journal's salvage semantics
// (hostutil.SalvageLines, shared with the cas action log): parse runs once
// per non-blank line, unparseable lines (typically one record torn by a
// crash mid-append) are reported through the returned Torn rather than
// failing the read. A missing file is an error the caller can test with
// os.IsNotExist.
func ReadLines(path string, parse func(line []byte) error) (*hostutil.Torn, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return hostutil.SalvageLines(data, parse), nil
}

// Start journals the beginning of a job attempt.
func (j *Journal) Start(job string, attempt int) error {
	return j.Append(JournalRecord{Event: EventStart, Attempt: attempt, Record: Record{Job: job}})
}

// Done journals a job's terminal result.
func (j *Journal) Done(rec Record) error {
	return j.Append(JournalRecord{Event: EventDone, Record: rec})
}

// Close closes the underlying file. A nil Journal is a no-op.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReadJournal parses the run journal at path, salvaging complete records
// around any torn or garbage lines. A missing file is an error the caller
// can test with os.IsNotExist.
func ReadJournal(path string) ([]JournalRecord, *hostutil.Torn, error) {
	var recs []JournalRecord
	torn, err := ReadLines(path, func(line []byte) error {
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Event != EventStart && rec.Event != EventDone {
			return fmt.Errorf("unknown journal event %q", rec.Event)
		}
		if rec.Job == "" {
			return fmt.Errorf("journal record without job name")
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return recs, torn, nil
}

// ReadManifest parses a JSONL run manifest, tolerating a truncated final
// line (crash mid-append): complete records are salvaged, the torn tail
// is reported, and the parse as a whole never fails on bad content.
func ReadManifest(path string) ([]Record, *hostutil.Torn, error) {
	var recs []Record
	torn, err := ReadLines(path, func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Job == "" {
			return fmt.Errorf("manifest record without job name")
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return recs, torn, nil
}

// PriorJob summarizes one job's outcome reconstructed from an interrupted
// run, for `-resume`.
type PriorJob struct {
	// Record is the job's last terminal record; valid when Done.
	Record Record
	// Done reports whether a terminal record was seen.
	Done bool
	// InFlight reports a start with no matching done — the job was
	// running when the host died.
	InFlight bool
	// Attempts is the highest attempt observed (started or recorded).
	Attempts int
}

// ReadPrior reconstructs per-job outcomes for a resume: from the journal
// when one exists (the run was interrupted before compaction), otherwise
// from the compacted manifest (the run finished, perhaps with failures).
// When neither exists it returns an empty map — resume of a fresh run is
// just a run.
func ReadPrior(journalPath, manifestPath string) (map[string]PriorJob, *hostutil.Torn, error) {
	prior := map[string]PriorJob{}
	if recs, torn, err := ReadJournal(journalPath); err == nil {
		for _, rec := range recs {
			p := prior[rec.Job]
			switch rec.Event {
			case EventStart:
				p.InFlight = true
				if rec.Attempt > p.Attempts {
					p.Attempts = rec.Attempt
				}
			case EventDone:
				p.Done, p.InFlight = true, false
				p.Record = rec.Record
				if rec.Record.Attempts > p.Attempts {
					p.Attempts = rec.Record.Attempts
				}
			}
			prior[rec.Job] = p
		}
		return prior, torn, nil
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	recs, torn, err := ReadManifest(manifestPath)
	if os.IsNotExist(err) {
		return prior, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	for _, rec := range recs {
		prior[rec.Job] = PriorJob{Record: rec, Done: true, Attempts: rec.Attempts}
	}
	return prior, torn, nil
}

// CarriedResult converts a prior run's record into a Result carried into
// a resumed run's summary: the job is not re-run, its recorded outcome
// (and attempt count, via Prior) rides along. The record itself is kept
// verbatim (modulo the Resumed flag) and re-emitted by record(), so
// wall_ms and sim_mips survive any number of resume cycles byte-identical
// — Wall below is reconstructed from the rounded wall_ms for display
// only and is never written back to a manifest.
func CarriedResult(rec Record) Result {
	carried := rec
	carried.Resumed = true
	return Result{
		Name:    rec.Job,
		Status:  rec.Status,
		Prior:   rec.Attempts,
		Resumed: true,
		Err:     rec.Error,
		Metrics: Metrics{ExitCode: rec.Exit, Cycles: rec.Cycles, Instrs: rec.Instrs},
		Wall:    time.Duration(rec.WallMS * float64(time.Millisecond)),
		Carried: &carried,
	}
}

// MergeResumed interleaves carried results from an interrupted run with
// this run's fresh results, in declaration order, so the compacted
// manifest of a resumed run diffs cleanly against an uninterrupted one.
func MergeResumed(order []string, carried map[string]Result, fresh *Summary) *Summary {
	byName := map[string]*Result{}
	for i := range fresh.Jobs {
		byName[fresh.Jobs[i].Name] = &fresh.Jobs[i]
	}
	out := &Summary{Wall: fresh.Wall, Workers: fresh.Workers}
	for _, name := range order {
		if r, ok := byName[name]; ok {
			out.Jobs = append(out.Jobs, *r)
		} else if r, ok := carried[name]; ok {
			out.Jobs = append(out.Jobs, r)
		}
	}
	return out
}

// Compact atomically writes the final manifest and retires the journal:
// once the manifest is durable the journal is redundant, and removing it
// marks the run as no longer in flight (releasing its checkpoint pins).
func Compact(journalPath, manifestPath string, s *Summary) error {
	if err := WriteManifest(manifestPath, s); err != nil {
		return err
	}
	if journalPath == "" {
		return nil
	}
	if err := os.Remove(journalPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
