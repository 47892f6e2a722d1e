package verify

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"firemarshal/internal/launcher"
	"firemarshal/internal/workgen"
)

// runFarmWithJournal runs a farm session writing its manifest to a fresh
// journal file and returns the summary plus the manifest bytes.
func runFarmWithJournal(t *testing.T, opt FarmOptions) (*FarmSummary, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "farm.jsonl")
	j, err := launcher.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j
	sum, err := RunFarm(opt)
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sum, data
}

// TestFarmSeededFaultDedup runs the whole pipeline end to end: three
// identical workloads with an injected fast-tier fault must each be
// detected, bisected to the exact injected instruction, and deduped to a
// single signature with one minimized repro in the CAS.
func TestFarmSeededFaultDedup(t *testing.T) {
	store := testStore(t)
	seed := int64(5)
	n := refInstret(t, workgen.RandomRecipe(seed))
	fault := &Fault{Tier: TierFast, Instr: n / 2, Reg: 27, Xor: 1}

	sum, manifest := runFarmWithJournal(t, FarmOptions{
		Params: Params{Seeds: []int64{seed, seed, seed}, Fault: fault},
		Store:  store,
		Jobs:   2,
	})
	if sum.Entries != 3 || sum.Divergences != 3 {
		t.Fatalf("entries=%d divergences=%d, want 3/3", sum.Entries, sum.Divergences)
	}
	if len(sum.Signatures) != 1 {
		t.Fatalf("signatures %v, want exactly one", sum.Signatures)
	}
	for sig, count := range sum.Signatures {
		if count != 3 {
			t.Fatalf("signature %s count %d, want 3", sig, count)
		}
		if sum.Repros[sig] == "" {
			t.Fatalf("no repro stored for %s", sig)
		}
		if !store.Has(sum.Repros[sig]) {
			t.Fatalf("repro digest %s not in CAS", sum.Repros[sig])
		}
	}
	first := sum.Records[0]
	if !first.NewSig || first.Repro == "" || first.Div == nil {
		t.Fatalf("first record %+v", first)
	}
	if first.Div.Instr != fault.Instr {
		t.Fatalf("bisected to %d, fault at %d", first.Div.Instr, fault.Instr)
	}
	for _, rec := range sum.Records[1:] {
		if rec.NewSig || rec.Repro != "" {
			t.Fatalf("duplicate not deduped: %+v", rec)
		}
		if rec.Sig != first.Sig {
			t.Fatalf("signature drifted: %s vs %s", rec.Sig, first.Sig)
		}
	}

	// The manifest is well-formed JSONL: three entry lines plus a final
	// summary line.
	var events []string
	var lines []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(manifest), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("manifest line %q: %v", line, err)
		}
		lines = append(lines, m)
		events = append(events, m["event"].(string))
	}
	if len(lines) != 4 || events[3] != "summary" {
		t.Fatalf("manifest events %v, want 3 entries + summary", events)
	}
}

// TestFarmManifestMatchesJournal: a summary encoded whole is the manifest
// RunFarm journaled line by line, divergences and repros included — so a
// fleet shard's manifest output and a merged manifest read exactly like a
// local farm's.
func TestFarmManifestMatchesJournal(t *testing.T) {
	seed := int64(5)
	n := refInstret(t, workgen.RandomRecipe(seed))
	sum, journaled := runFarmWithJournal(t, FarmOptions{
		Params: Params{Seeds: []int64{seed, seed, 1}, Fault: &Fault{Tier: TierFast, Instr: n / 2, Reg: 27, Xor: 1}},
		Store:  testStore(t),
	})
	if sum.Divergences == 0 {
		t.Fatal("the fault diverged nothing")
	}
	manifest, err := sum.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest, journaled) {
		t.Fatalf("encoded manifest differs from the journal:\n%s\n--- vs ---\n%s", manifest, journaled)
	}
}

// TestFarmDeterministic: the same seeds, farm seed, and options produce
// byte-identical generated workloads and manifests across runs — whatever
// the evaluation parallelism, GOMAXPROCS-wide (Jobs 0) included, and with
// coverage-guided mutation rounds.
func TestFarmDeterministic(t *testing.T) {
	run := func(jobs int) (*FarmSummary, []byte) {
		return runFarmWithJournal(t, FarmOptions{
			Params: Params{Seeds: []int64{1, 2, 3, 4}, Rounds: 2, FarmSeed: 42},
			Store:  testStore(t),
			Jobs:   jobs,
		})
	}
	sum1, man1 := run(4)
	sum2, man2 := run(4)
	if !bytes.Equal(man1, man2) {
		t.Fatalf("manifests differ:\n%s\n--- vs ---\n%s", man1, man2)
	}
	for _, jobs := range []int{0, 1} {
		if _, man := run(jobs); !bytes.Equal(man1, man) {
			t.Fatalf("manifest at Jobs %d differs from Jobs 4:\n%s\n--- vs ---\n%s", jobs, man, man1)
		}
	}
	if !reflect.DeepEqual(sum1.Records, sum2.Records) {
		t.Fatal("records differ across identical runs")
	}
	if !reflect.DeepEqual(sum1.Coverage, sum2.Coverage) {
		t.Fatal("coverage differs across identical runs")
	}
	// The mutation rounds actually ran and generated byte-identical
	// workload sources (compared via their CAS digests in the manifest).
	if sum1.Entries != 4+2*4 {
		t.Fatalf("entries %d, want 12", sum1.Entries)
	}
	sawMutant := false
	for i, rec := range sum1.Records {
		if rec.Round > 0 {
			sawMutant = true
			if rec.Parent == "" {
				t.Fatalf("mutant without parent: %+v", rec)
			}
		}
		if rec.Source == "" || rec.Source != sum2.Records[i].Source {
			t.Fatalf("source digest drifted at entry %d: %s vs %s", i, rec.Source, sum2.Records[i].Source)
		}
	}
	if !sawMutant {
		t.Fatal("no mutation rounds ran")
	}
}

// TestFarmRTLSpotCheck: with RTLEvery=1 every entry also runs on the
// cycle-exact platform; a clean corpus stays clean.
func TestFarmRTLSpotCheck(t *testing.T) {
	sum, _ := runFarmWithJournal(t, FarmOptions{
		Params: Params{Seeds: []int64{9, 10}, RTLEvery: 1},
		Store:  testStore(t),
	})
	if sum.Divergences != 0 {
		t.Fatalf("clean corpus diverged: %+v", sum.Records)
	}
}

// TestFarmMaxEntries: the entry cap truncates the session deterministically.
func TestFarmMaxEntries(t *testing.T) {
	sum, _ := runFarmWithJournal(t, FarmOptions{
		Params: Params{Seeds: []int64{1, 2, 3}, Rounds: 3, MaxEntries: 5, FarmSeed: 7},
		Store:  testStore(t),
	})
	if sum.Entries != 5 {
		t.Fatalf("entries %d, want 5", sum.Entries)
	}
}
