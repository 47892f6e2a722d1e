package hostutil

import (
	"bytes"
	"fmt"
)

// Torn describes append-only log content that could not be parsed —
// typically the single record torn by a crash mid-append, but garbage
// lines are tolerated (and reported) the same way. Salvage never fails
// the whole parse.
type Torn struct {
	// Line is the 1-based line number of the first unusable line.
	Line int
	// Lines is how many lines were unusable.
	Lines int
	// Bytes is the total unusable byte count.
	Bytes int
	// Tail is true when the file ends mid-record (no trailing newline).
	Tail bool
	// Err is the first parse error, for diagnostics.
	Err string
}

func (t *Torn) String() string {
	if t == nil {
		return ""
	}
	kind := "garbage"
	if t.Tail {
		kind = "torn tail"
	}
	return fmt.Sprintf("%s at line %d (%d line(s), %d byte(s)): %s", kind, t.Line, t.Lines, t.Bytes, t.Err)
}

// SalvageLines walks newline-separated records — the run journal, the
// manifests, the cas action log — calling parse on each candidate.
// Unparseable lines are reported via the returned Torn (nil when
// everything parsed); parsing never aborts. A final fragment with no
// newline is still offered to parse — a crash can complete the record but
// not the newline — and only reported torn if it fails.
func SalvageLines(data []byte, parse func(line []byte) error) *Torn {
	var torn *Torn
	note := func(lineNo int, line []byte, tail bool, err error) {
		if torn == nil {
			torn = &Torn{Line: lineNo, Err: err.Error()}
		}
		torn.Lines++
		torn.Bytes += len(line)
		torn.Tail = tail
	}
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line []byte
		i := bytes.IndexByte(data, '\n')
		tail := i < 0
		if tail {
			line, data = data, nil
		} else {
			line, data = data[:i], data[i+1:]
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		if err := parse(trimmed); err != nil {
			note(lineNo, line, tail, err)
		}
	}
	return torn
}
