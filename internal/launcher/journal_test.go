package launcher

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestJournalAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start("job00", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Done(Record{Job: "job00", Status: StatusOK, Attempts: 1, Cycles: 42}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, torn, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != nil {
		t.Fatalf("unexpected torn report: %v", torn)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Event != EventStart || recs[0].Job != "job00" || recs[0].Attempt != 1 {
		t.Errorf("start record = %+v", recs[0])
	}
	if recs[1].Event != EventDone || recs[1].Status != StatusOK || recs[1].Cycles != 42 {
		t.Errorf("done record = %+v", recs[1])
	}
	if recs[0].Seq >= recs[1].Seq {
		t.Errorf("seq not monotonic: %d then %d", recs[0].Seq, recs[1].Seq)
	}
}

// TestJournalTornTail is the crash-mid-append case: the final record is
// cut partway through. Complete records are salvaged, the tail reported.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	whole := `{"event":"start","seq":0,"attempt":1,"job":"a","status":"","attempts":0,"exit":0,"cycles":0,"wall_ms":0,"sim_mips":0}` + "\n"
	writeFile(t, path, whole+`{"event":"done","seq":1,"job":"a","status":"ok`)

	recs, torn, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Event != EventStart {
		t.Fatalf("salvaged %d records (%+v), want the 1 complete start", len(recs), recs)
	}
	if torn == nil || !torn.Tail || torn.Line != 2 {
		t.Fatalf("torn = %+v, want tail at line 2", torn)
	}
	if !strings.Contains(torn.String(), "torn tail") {
		t.Errorf("torn.String() = %q", torn.String())
	}
}

// A complete final record that merely lost its trailing newline is still
// salvaged — only genuinely unparseable tails are reported torn.
func TestJournalTailWithoutNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	writeFile(t, path, `{"event":"done","seq":0,"job":"a","status":"ok","attempts":1,"exit":0,"cycles":7,"wall_ms":1,"sim_mips":0}`)
	recs, torn, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != nil || len(recs) != 1 || recs[0].Cycles != 7 {
		t.Fatalf("recs=%+v torn=%+v", recs, torn)
	}
}

func TestJournalGarbageLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	writeFile(t, path, strings.Join([]string{
		`{"event":"start","seq":0,"attempt":1,"job":"a"}`,
		`not json at all`,
		`{"event":"mystery","seq":9,"job":"a"}`,
		`{"event":"done","seq":2,"job":"a","status":"ok","attempts":1,"exit":0,"cycles":1,"wall_ms":1,"sim_mips":0}`,
		``,
	}, "\n"))
	recs, torn, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("salvaged %d records, want 2: %+v", len(recs), recs)
	}
	if torn == nil || torn.Line != 2 || torn.Lines != 2 || torn.Tail {
		t.Fatalf("torn = %+v", torn)
	}
}

func TestReadManifestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	writeFile(t, path,
		`{"job":"a","status":"ok","attempts":1,"exit":0,"cycles":10,"wall_ms":1,"sim_mips":0}`+"\n"+
			`{"job":"b","status":"ok","attempts":1,"exi`)
	recs, torn, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Job != "a" || recs[0].Cycles != 10 {
		t.Fatalf("recs = %+v", recs)
	}
	if torn == nil || !torn.Tail {
		t.Fatalf("torn = %+v, want torn tail", torn)
	}
	if _, _, err := ReadManifest(filepath.Join(t.TempDir(), "absent")); !os.IsNotExist(err) {
		t.Errorf("missing manifest: err = %v, want IsNotExist", err)
	}
}

func TestReadPrior(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "j")
	manifest := filepath.Join(dir, "m")

	// Neither file: clean slate.
	prior, torn, err := ReadPrior(journal, manifest)
	if err != nil || torn != nil || len(prior) != 0 {
		t.Fatalf("fresh: prior=%v torn=%v err=%v", prior, torn, err)
	}

	// Journal present: ok job done, crashed job started twice, failed job.
	writeFile(t, journal, strings.Join([]string{
		`{"event":"start","seq":0,"attempt":1,"job":"done"}`,
		`{"event":"done","seq":1,"job":"done","status":"ok","attempts":1,"exit":0,"cycles":5,"wall_ms":1,"sim_mips":0}`,
		`{"event":"start","seq":2,"attempt":1,"job":"crashed"}`,
		`{"event":"start","seq":3,"attempt":2,"job":"crashed"}`,
		`{"event":"start","seq":4,"attempt":1,"job":"bad"}`,
		`{"event":"done","seq":5,"job":"bad","status":"failed","attempts":1,"exit":3,"cycles":0,"wall_ms":1,"sim_mips":0,"error":"boom"}`,
		``,
	}, "\n"))
	prior, torn, err = ReadPrior(journal, manifest)
	if err != nil || torn != nil {
		t.Fatalf("torn=%v err=%v", torn, err)
	}
	if p := prior["done"]; !p.Done || p.InFlight || p.Record.Status != StatusOK || p.Attempts != 1 {
		t.Errorf("done job = %+v", p)
	}
	if p := prior["crashed"]; p.Done || !p.InFlight || p.Attempts != 2 {
		t.Errorf("crashed job = %+v", p)
	}
	if p := prior["bad"]; !p.Done || p.InFlight || p.Record.Status != StatusFailed {
		t.Errorf("bad job = %+v", p)
	}

	// Manifest fallback when no journal.
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	writeFile(t, manifest, `{"job":"m1","status":"ok","attempts":2,"exit":0,"cycles":9,"wall_ms":1,"sim_mips":0}`+"\n")
	prior, _, err = ReadPrior(journal, manifest)
	if err != nil {
		t.Fatal(err)
	}
	if p := prior["m1"]; !p.Done || p.Attempts != 2 || p.Record.Cycles != 9 {
		t.Errorf("manifest fallback = %+v", p)
	}
}

func TestMergeResumedAndTable(t *testing.T) {
	carried := map[string]Result{
		"a": CarriedResult(Record{Job: "a", Status: StatusOK, Attempts: 2, Cycles: 100, WallMS: 50}),
	}
	fresh := &Summary{
		Jobs: []Result{{Name: "b", Status: StatusOK, Attempts: 1, Prior: 1, Resumed: true,
			Metrics: Metrics{Cycles: 200}, Wall: time.Second}},
		Workers: 2, Wall: time.Second,
	}
	merged := MergeResumed([]string{"a", "b"}, carried, fresh)
	if len(merged.Jobs) != 2 || merged.Jobs[0].Name != "a" || merged.Jobs[1].Name != "b" {
		t.Fatalf("merged = %+v", merged.Jobs)
	}
	if err := merged.Err(); err != nil {
		t.Errorf("merged.Err() = %v", err)
	}
	recs := merged.Records()
	if !recs[0].Resumed || recs[0].Attempts != 2 || recs[0].Cycles != 100 {
		t.Errorf("carried record = %+v", recs[0])
	}
	if !recs[1].Resumed || recs[1].Attempts != 2 {
		t.Errorf("resumed record = %+v", recs[1])
	}
	table := FormatTable(merged)
	if !strings.Contains(table, "2+0") || !strings.Contains(table, "1+1") {
		t.Errorf("table does not mark carried attempts:\n%s", table)
	}
	// A resumed run whose re-run job failed must still aggregate an error.
	fresh.Jobs[0].Status = StatusFailed
	if err := MergeResumed([]string{"a", "b"}, carried, fresh).Err(); err == nil {
		t.Error("merged summary with failed job reports no error")
	}
}

// TestLauncherJournals runs a pool with a journal attached and checks the
// on-disk event stream plus compaction.
func TestLauncherJournals(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "run.journal")
	manifestPath := filepath.Join(dir, "run.manifest.jsonl")
	j, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Name: "good", Run: func(ctx context.Context, attempt int) (Metrics, error) {
			return Metrics{Cycles: 11}, nil
		}},
		{Name: "flaky", Prior: 1, Run: func(ctx context.Context, attempt int) (Metrics, error) {
			if attempt == 1 {
				return Metrics{}, os.ErrDeadlineExceeded
			}
			return Metrics{Cycles: 22}, nil
		}},
	}
	l := New(Options{Workers: 2, Retries: 1, Journal: j, Sleep: (&recordingSleep{}).sleep})
	sum := l.Run(context.Background(), jobs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, torn, err := ReadJournal(journalPath)
	if err != nil || torn != nil {
		t.Fatalf("read journal: recs=%v torn=%v err=%v", recs, torn, err)
	}
	starts, dones := 0, 0
	for _, r := range recs {
		switch r.Event {
		case EventStart:
			starts++
		case EventDone:
			dones++
			if r.Job == "flaky" && (r.Attempts != 3 || !r.Resumed) {
				t.Errorf("flaky done record = %+v, want attempts=3 resumed", r.Record)
			}
		}
	}
	if starts != 3 || dones != 2 {
		t.Errorf("journal has %d starts, %d dones; want 3, 2", starts, dones)
	}

	if err := Compact(journalPath, manifestPath, sum); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(journalPath); !os.IsNotExist(err) {
		t.Errorf("journal survives compaction: %v", err)
	}
	mrecs, mtorn, err := ReadManifest(manifestPath)
	if err != nil || mtorn != nil || len(mrecs) != 2 {
		t.Fatalf("compacted manifest: recs=%v torn=%v err=%v", mrecs, mtorn, err)
	}
}

// FuzzReadJournal hammers the salvaging reader with torn and garbage
// input: it must never panic, never fail the parse, and every salvaged
// record must be a valid journal event.
func FuzzReadJournal(f *testing.F) {
	f.Add([]byte(`{"event":"start","seq":0,"attempt":1,"job":"a"}` + "\n"))
	f.Add([]byte(`{"event":"done","seq":1,"job":"a","status":"ok","attempts":1,"exit":0,"cycles":1,"wall_ms":1,"sim_mips":0}` + "\n"))
	f.Add([]byte(`{"event":"done","seq":1,"job":"a","status":"ok`))
	f.Add([]byte("\x00\xff{}[]\nnot json\n"))
	f.Add([]byte("\n\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, torn, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("ReadJournal failed on salvageable input: %v", err)
		}
		for _, r := range recs {
			if r.Event != EventStart && r.Event != EventDone {
				t.Fatalf("salvaged record with bad event: %+v", r)
			}
			if r.Job == "" {
				t.Fatalf("salvaged record without job: %+v", r)
			}
			if _, err := json.Marshal(r); err != nil {
				t.Fatalf("salvaged record does not re-encode: %v", err)
			}
		}
		if torn != nil && torn.Lines == 0 {
			t.Fatalf("torn report with zero lines: %+v", torn)
		}
	})
}

// FuzzReadManifest feeds ReadManifest arbitrary bytes as a manifest file: it
// never panics, never fails on a file that exists, and every nonblank line is
// either a record with a job name or counted as torn.
func FuzzReadManifest(f *testing.F) {
	for _, seed := range []string{
		`{"job":"a","status":"ok","attempts":1,"cycles":9}` + "\n",
		`{"job":"a","status":"ok"}` + "\n" + `{"job":"b","status":"failed","error":"x"}`,
		`{"job":""}` + "\n", `{"job":"a"`, "\n\n  \n", `null`, `[1]`,
		`{"job":"a"}` + "\n\x00garbage\n" + `{"job":"b","attempts":"2"}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "w.manifest.jsonl")
		writeFile(t, path, string(data))
		recs, torn, err := ReadManifest(path)
		if err != nil {
			t.Fatalf("reading a manifest that exists: %v", err)
		}
		for _, rec := range recs {
			if rec.Job == "" {
				t.Errorf("record without a job name: %+v", rec)
			}
		}
		lines := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		bad := 0
		if torn != nil {
			bad = torn.Lines
		}
		if len(recs)+bad != lines {
			t.Errorf("%d record(s) + %d torn line(s) from %d nonblank line(s)", len(recs), bad, lines)
		}
	})
}
