package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"firemarshal/internal/obs"
)

// config is what every run of one invocation shares.
type config struct {
	sz   sizes
	seed int64
	// dir receives scratch trees (under tmp/) and trace files.
	dir string
	// goldens is the pinned golden tree, nil when this scale or seed has
	// none; updateGolden, when set, is the directory to rewrite it in.
	goldens      *goldenSet
	updateGolden string
	// references caches each workload's reference-run facts: they depend
	// only on the generated inputs, which every run of an invocation shares.
	references map[string]facts
}

// sample is one run of one workload.
type sample struct {
	setupS, wallS, cpuS float64
	attempted, failed   int
	errs                []string
	facts               facts
	layer               map[string]float64
	spans               []span
}

// newEnv creates a fresh scratch tree and runs the workload's set-up in it.
func (c *config) newEnv(w workload, sz sizes) (*env, error) {
	tmp := filepath.Join(c.dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	// Specs and cache directories are handed to the program as given;
	// make them absolute once, here.
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	e := &env{sz: sz, seed: c.seed, dir: dir, wlDir: filepath.Join(dir, "workloads"), reg: obs.NewRegistry(), nativeRefs: w.nativeRefs}
	if sz.name == c.sz.name {
		e.golden = c.goldens.workload(w.name)
	}
	if err := w.setup(e); err != nil {
		e.close()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return e, nil
}

// runOnce performs the scenario once: set-up into fresh directories (cold
// workdir, empty caches), the timed scenario, then the comparison of
// everything it produced with the golden.
func (c *config) runOnce(w workload, sz sizes, traced bool) (sample, error) {
	var s sample
	t0 := time.Now()
	e, err := c.newEnv(w, sz)
	if err != nil {
		return s, err
	}
	defer e.close()
	s.setupS = time.Since(t0).Seconds()

	var rec *recorder
	if traced {
		rec = newRecorder(fmt.Sprintf("%s-seed%d", w.name, c.seed))
	}
	o := newOutcome()
	// Every repetition starts from a collected heap, so what set-up and the
	// previous repetition left behind is not charged to this one.
	runtime.GC()
	cpu0 := cpuSeconds()
	t0 = time.Now()
	root := rec.begin(nil, layerBench, w.name)
	w.run(e, rec, root, o)
	root.end()
	s.wallS, s.cpuS = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	for _, fn := range o.after {
		fn()
	}

	want, source, err := c.expected(w, e, o)
	if err != nil {
		return s, err
	}
	o.check(want, source)
	if sim, ok := o.facts["aux.simulated_instrs"]; ok {
		a, _ := strconv.ParseFloat(sim, 64)
		b, _ := strconv.ParseFloat(want["aux.uninterrupted_instrs"], 64)
		o.layer["ckpt_resume.rework_instrs"] = a - b
	}
	s.attempted, s.failed, s.errs = o.attempted, o.failed, o.errs
	s.facts, s.layer, s.spans = o.facts, o.layer, rec.snapshot()
	return s, nil
}

// expected returns the facts the run must reproduce and where they come
// from: the pinned golden, or for an unpinned seed the workload's
// reference run (none: the invariants alone are checked). With
// -update-golden the run's own facts, completed by the reference run's
// auxiliary data, become the golden.
func (c *config) expected(w workload, e *env, o *outcome) (facts, string, error) {
	if e.golden != nil && c.updateGolden == "" {
		want, err := readFacts(e.golden)
		return want, "golden", err
	}
	key := w.name + "/" + e.sz.name
	want, ok := c.references[key]
	if !ok && w.reference != nil {
		var err error
		if want, err = w.reference(e); err != nil {
			return nil, "", fmt.Errorf("%s reference run: %w", w.name, err)
		}
		c.references[key] = want
	}
	if c.updateGolden != "" && e.sz.name == c.sz.name {
		pinned := facts{}
		for k, v := range o.facts {
			pinned[k] = v
		}
		for k, v := range want {
			if _, ok := pinned[k]; !ok {
				pinned[k] = v
			}
		}
		dir := filepath.Join(c.updateGolden, fmt.Sprint(c.seed), w.name)
		var refs map[string][]byte
		if w.nativeRefs {
			refs = o.refs
		}
		if err := writeGolden(dir, pinned, refs); err != nil {
			return nil, "", err
		}
	}
	return want, "reference run", nil
}
