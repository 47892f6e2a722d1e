// The farm loop: coverage-guided corpus generation, parallel lockstep
// evaluation, bisection + minimization of divergences, signature dedup,
// and a crash-safe JSONL manifest.
//
// Determinism is load-bearing: the same seeds, farm seed, and options
// produce byte-identical generated workloads and an identical manifest
// (no wall-clock fields), regardless of -jobs parallelism. That holds
// because evaluation is pure per entry, results are merged strictly in
// entry order, and each round's mutation RNG is seeded from
// FarmSeed+round while its bias comes from coverage merged over all
// prior entries — CI diffs two farm runs directly.
package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"firemarshal/internal/asm"
	"firemarshal/internal/cas"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/rtlsim"
	"firemarshal/internal/workgen"
)

// Params are a farm session's parameters: everything that decides which
// workloads it generates and how it judges them. They are the whole of a
// fleet shard's job spec (remote.JobSpec.Verify), so they travel as JSON.
type Params struct {
	// Seeds generate the round-0 corpus via workgen.RandomRecipe.
	Seeds []int64 `json:"seeds"`
	// Rounds of coverage-guided mutation after round 0 (default 1).
	Rounds int `json:"rounds,omitempty"`
	// Mutations per round (default: len(Seeds)).
	Mutations int `json:"mutations,omitempty"`
	// MaxEntries stops the farm after evaluating this many corpus
	// entries (0 = unlimited).
	MaxEntries int `json:"max_entries,omitempty"`
	// MaxInstrs bounds each workload run (0 = the package default).
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
	// CkptEvery is the bisector's coarse checkpoint interval.
	CkptEvery uint64 `json:"ckpt_every,omitempty"`
	// RTLEvery spot-checks every Nth entry on the cycle-exact rtlsim
	// platform (0 = off).
	RTLEvery int `json:"rtl_every,omitempty"`
	// FarmSeed seeds each round's mutation RNG (FarmSeed + round).
	FarmSeed int64 `json:"farm_seed,omitempty"`
	// Fault injects a deterministic divergence — the self-test hook.
	Fault *Fault `json:"fault,omitempty"`
}

// FarmOptions configures one farm session (local run or one fleet shard):
// its Params plus where it runs.
type FarmOptions struct {
	Params
	// Store is the CAS holding checkpoints, repro sources, and manifests.
	Store *cas.Store
	// Journal, when set, receives one JSONL record per corpus entry plus
	// a final summary line (crash-safe: fsync per line).
	Journal *launcher.Journal
	// Jobs is the evaluation parallelism (0 = GOMAXPROCS; results are
	// merged in entry order either way).
	Jobs int
	// Obs receives farm metrics (nil = the process-default registry).
	Obs *obs.Registry
	// Log, when set, receives human-readable progress lines.
	Log io.Writer
	// Ctx, when set, time-boxes the farm: no new entries are evaluated
	// after cancellation, already-evaluated entries are still recorded.
	Ctx context.Context
}

// FarmRecord is one manifest line: a corpus entry's outcome. It contains
// no timestamps or durations — two identical farm sessions produce
// byte-identical manifests.
type FarmRecord struct {
	Event string `json:"event"` // "entry"
	Entry int    `json:"entry"`
	Round int    `json:"round"`
	Name  string `json:"name"`
	// Seed is set for round-0 entries, Parent for mutants.
	Seed   int64  `json:"seed,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Source is the CAS digest of the generated assembly.
	Source  string `json:"source"`
	Instret uint64 `json:"instret"`
	Exit    int64  `json:"exit"`
	// Status is "ok", "diverged", or "error".
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Tier/Kind/Detail describe a divergence at lockstep level; Div adds
	// the bisected culprit when bisection reproduced it.
	Tier   string      `json:"tier,omitempty"`
	Kind   string      `json:"kind,omitempty"`
	Detail string      `json:"detail,omitempty"`
	Div    *Divergence `json:"divergence,omitempty"`
	// Sig is the dedup signature; NewSig marks its first occurrence,
	// which is when Repro (the minimized reproducer's CAS digest) and
	// ReproRecipe (its recipe JSON digest) are populated.
	Sig         string `json:"sig,omitempty"`
	NewSig      bool   `json:"new_sig,omitempty"`
	Repro       string `json:"repro,omitempty"`
	ReproRecipe string `json:"repro_recipe,omitempty"`
}

// FarmSummaryRecord is the manifest's final line — also what fleet
// coordinators parse back out of each shard's manifest to merge coverage
// and re-dedup signatures globally.
type FarmSummaryRecord struct {
	Event       string         `json:"event"` // "summary"
	Entries     int            `json:"entries"`
	Divergences int            `json:"divergences"`
	Signatures  map[string]int `json:"signatures,omitempty"`
	Coverage    Coverage       `json:"coverage"`
	Ratio       float64        `json:"ratio"`
}

// FarmSummary is the in-memory result of a farm session.
type FarmSummary struct {
	Entries     int
	Divergences int
	// Signatures maps each unique divergence signature to its hit count.
	Signatures map[string]int
	Coverage   Coverage
	Records    []FarmRecord
	// Repros maps signature → minimized repro source digest.
	Repros map[string]string
}

// Record is the summary as its manifest line.
func (s *FarmSummary) Record() FarmSummaryRecord {
	return FarmSummaryRecord{
		Event:       "summary",
		Entries:     s.Entries,
		Divergences: s.Divergences,
		Signatures:  s.Signatures,
		Coverage:    s.Coverage,
		Ratio:       s.Coverage.Ratio(),
	}
}

// entryEval is one corpus entry's evaluation — pure (no shared state),
// so entries evaluate in parallel and merge deterministically.
type entryEval struct {
	recipe workgen.Recipe
	round  int
	parent string
	source string
	ref    Outcome
	cov    Coverage
	// tier/kind/detail describe the first diverging tier ("" = clean).
	tier, kind, detail string
	err                string
}

// evaluateEntry assembles and runs one recipe on every tier.
func evaluateEntry(recipe workgen.Recipe, fault *Fault, limit uint64, checkRTL bool) *entryEval {
	e := &entryEval{recipe: recipe}
	exe, err := asm.Assemble(recipe.Source(), asm.Options{})
	if err != nil {
		e.err = err.Error()
		return e
	}

	ref := newTierRun(TierReference, exe, nil, limit)
	ref.onEvent = e.cov.NoteEvent
	if rerr := ref.run(); rerr != nil {
		e.ref = ref.outcome()
		e.ref.Err = rerr.Error()
	} else {
		e.ref = ref.outcome()
	}
	e.cov.NoteMachine(ref.m)

	for _, tier := range []string{TierFast, TierTraced} {
		tr := newTierRun(tier, exe, fault, limit)
		terr := tr.run()
		o := tr.outcome()
		if terr != nil {
			o.Err = terr.Error()
		}
		if tier == TierTraced {
			e.cov.NoteMachine(tr.m)
		}
		if kind, detail := diffOutcomes(e.ref, o); kind != "" && e.tier == "" {
			e.tier, e.kind, e.detail = tier, kind, detail
		}
	}

	if checkRTL && e.tier == "" {
		cfg := rtlsim.DefaultConfig()
		if limit > 0 {
			cfg.MaxInstrs = limit
		}
		// Only exit status and retired-instruction count are compared:
		// the cycle-exact platform's whole point is different timing,
		// and workload console output embeds rdcycle readings, so
		// console bytes legitimately differ.
		if p, err := rtlsim.New(cfg); err == nil {
			var console bytes.Buffer
			res, xerr := p.Exec(exe, &console)
			switch {
			case xerr != nil:
				e.tier, e.kind = TierRTL, "error"
				e.detail = fmt.Sprintf("rtl error %q vs reference none", xerr)
			case res.Exit != e.ref.Exit:
				e.tier, e.kind = TierRTL, "exit"
				e.detail = fmt.Sprintf("exit %d vs reference %d", res.Exit, e.ref.Exit)
			case res.Instrs != e.ref.Instret:
				e.tier, e.kind = TierRTL, "instret"
				e.detail = fmt.Sprintf("instret %d vs reference %d", res.Instrs, e.ref.Instret)
			}
		}
	}
	return e
}

// RunFarm executes one farm session and returns its summary. Records are
// appended to opt.Journal (when set) as they are merged, so a crash
// loses at most the entry being written.
func RunFarm(opt FarmOptions) (*FarmSummary, error) {
	if opt.Store == nil {
		return nil, fmt.Errorf("verify: farm needs a CAS store")
	}
	if len(opt.Seeds) == 0 {
		return nil, fmt.Errorf("verify: farm needs at least one seed")
	}
	rounds := opt.Rounds
	if rounds < 0 {
		rounds = 0
	}
	mutations := opt.Mutations
	if mutations <= 0 {
		mutations = len(opt.Seeds)
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}

	sum := &FarmSummary{
		Signatures: map[string]int{},
		Repros:     map[string]string{},
	}
	var corpus []workgen.Recipe
	stopped := false

	for round := 0; round <= rounds && !stopped; round++ {
		var batch []workgen.Recipe
		if round == 0 {
			for _, s := range opt.Seeds {
				batch = append(batch, workgen.RandomRecipe(s))
			}
		} else {
			bias := sum.Coverage.Gaps()
			rng := rand.New(rand.NewSource(opt.FarmSeed + int64(round)))
			for i := 0; i < mutations; i++ {
				parent := corpus[i%len(corpus)]
				m := parent.Mutate(rng, bias)
				m.Name = fmt.Sprintf("%s.m%d.%d", parent.Name, round, i)
				batch = append(batch, m)
			}
			names := make([]string, len(bias))
			for i, k := range bias {
				names[i] = k.String()
			}
			logf("round %d: %d mutants, bias [%s]", round, len(batch), joinStrings(names))
		}
		if opt.MaxEntries > 0 && sum.Entries+len(batch) > opt.MaxEntries {
			batch = batch[:opt.MaxEntries-sum.Entries]
			stopped = true
		}

		// Evaluate the batch in parallel; merge strictly in entry order.
		evals := make([]*entryEval, len(batch))
		sem := make(chan struct{}, jobs)
		var wg sync.WaitGroup
		for i := range batch {
			if ctx.Err() != nil {
				stopped = true
				break
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				checkRTL := opt.RTLEvery > 0 && (sum.Entries+i)%opt.RTLEvery == 0
				e := evaluateEntry(batch[i], opt.Fault, opt.MaxInstrs, checkRTL)
				e.round = round
				if round > 0 {
					e.parent = corpus[i%len(corpus)].Name
				}
				evals[i] = e
			}(i)
		}
		wg.Wait()

		for _, e := range evals {
			if e == nil {
				break // cancelled before evaluation
			}
			rec, err := mergeEntry(opt, sum, e)
			if err != nil {
				return sum, err
			}
			if rec.Status == "diverged" {
				logf("entry %d %s: %s diverged (%s) sig=%s new=%v",
					rec.Entry, rec.Name, rec.Tier, rec.Kind, rec.Sig, rec.NewSig)
			}
		}
		corpus = append(corpus, batch...)
	}

	opt.Obs.Gauge("verify_coverage_ratio").Set(sum.Coverage.Ratio())
	opt.Obs.Gauge("verify_signatures_unique").Set(float64(len(sum.Signatures)))
	if err := opt.Journal.AppendLine(sum.Record()); err != nil {
		return sum, err
	}
	logf("farm done: %d entries, %d divergences, %d unique signatures, coverage %.1f%%",
		sum.Entries, sum.Divergences, len(sum.Signatures), 100*sum.Coverage.Ratio())
	return sum, nil
}

// mergeEntry folds one evaluated entry into the summary — coverage
// merge, signature dedup, first-occurrence bisection bookkeeping,
// minimization, CAS storage, and the manifest line.
func mergeEntry(opt FarmOptions, sum *FarmSummary, e *entryEval) (*FarmRecord, error) {
	rec := FarmRecord{
		Event:  "entry",
		Entry:  sum.Entries,
		Round:  e.round,
		Name:   e.recipe.Name,
		Parent: e.parent,
	}
	if e.round == 0 {
		rec.Seed = e.recipe.Seed
	}
	sum.Entries++
	opt.Obs.Counter("verify_entries_total").Inc()
	sum.Coverage.Merge(e.cov)

	srcDigest, err := opt.Store.Put([]byte(e.recipe.Source()))
	if err != nil {
		return nil, err
	}
	rec.Source = srcDigest
	rec.Instret = e.ref.Instret
	rec.Exit = e.ref.Exit

	switch {
	case e.err != "":
		rec.Status, rec.Error = "error", e.err
	case e.tier == "":
		rec.Status = "ok"
	default:
		rec.Status = "diverged"
		rec.Tier, rec.Kind, rec.Detail = e.tier, e.kind, e.detail
		sum.Divergences++
		opt.Obs.Counter("verify_divergences_total").Inc()
		if err := bisectEntry(opt, sum, e, &rec); err != nil {
			return nil, err
		}
	}
	if err := opt.Journal.AppendLine(rec); err != nil {
		return nil, err
	}
	sum.Records = append(sum.Records, rec)
	return &rec, nil
}

// bisectEntry pins a diverged entry to its culprit instruction, dedupes
// by signature, and on a signature's first occurrence minimizes the
// workload and stores the repro in the CAS.
func bisectEntry(opt FarmOptions, sum *FarmSummary, e *entryEval, rec *FarmRecord) error {
	exe, err := asm.Assemble(e.recipe.Source(), asm.Options{})
	if err != nil {
		return err // assembled fine during evaluation; real I/O-free path
	}
	var div *Divergence
	if e.tier != TierRTL {
		div, err = Bisect(opt.Store, exe, e.tier, opt.Fault, opt.MaxInstrs, opt.CkptEvery)
		if err != nil {
			return err
		}
		opt.Obs.Counter("verify_bisect_probes_total").Add(uint64(probeCount(div)))
	}
	if div == nil {
		// rtl divergences and non-reproducing lockstep findings are
		// signed at lockstep granularity (no culprit instruction).
		rec.Sig = signature(e.tier, 0, "", e.kind)
	} else {
		rec.Div = div
		rec.Sig = div.Sig
	}

	first := sum.Signatures[rec.Sig] == 0
	sum.Signatures[rec.Sig]++
	rec.NewSig = first
	if !first || div == nil {
		return nil
	}
	small, smallDiv := Minimize(opt.Store, e.recipe, div, opt.Fault, opt.MaxInstrs, opt.CkptEvery)
	rec.Div = smallDiv
	repro, err := opt.Store.Put([]byte(small.Source()))
	if err != nil {
		return err
	}
	recipeJSON, err := recipeDigest(opt.Store, small)
	if err != nil {
		return err
	}
	rec.Repro, rec.ReproRecipe = repro, recipeJSON
	sum.Repros[rec.Sig] = repro
	return nil
}

func probeCount(d *Divergence) int {
	if d == nil {
		return 0
	}
	return d.Probes
}

func recipeDigest(store *cas.Store, r workgen.Recipe) (string, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return store.Put(data)
}

func joinStrings(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out
}
