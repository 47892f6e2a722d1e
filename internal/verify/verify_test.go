package verify

import (
	"encoding/json"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/cas"
	"firemarshal/internal/isa"
	"firemarshal/internal/workgen"
)

func testStore(t *testing.T) *cas.Store {
	t.Helper()
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func assemble(t *testing.T, r workgen.Recipe) *isa.Executable {
	t.Helper()
	exe, err := asm.Assemble(r.Source(), asm.Options{})
	if err != nil {
		t.Fatalf("assembling %s: %v", r.Name, err)
	}
	return exe
}

// refInstret runs a recipe's reference tier to completion and returns
// how many instructions it retires.
func refInstret(t *testing.T, r workgen.Recipe) uint64 {
	t.Helper()
	tr := newTierRun(TierReference, assemble(t, r), nil, 0)
	if err := tr.run(); err != nil {
		t.Fatalf("reference run of %s: %v", r.Name, err)
	}
	if !tr.m.Halted {
		t.Fatalf("reference run of %s did not halt", r.Name)
	}
	return tr.m.Instret
}

func TestParseFault(t *testing.T) {
	f, err := ParseFault("fast:5000:x27:0x1")
	if err != nil {
		t.Fatal(err)
	}
	if f.Tier != TierFast || f.Instr != 5000 || f.Reg != 27 || f.Xor != 1 {
		t.Fatalf("parsed %+v", f)
	}
	if f2, err := ParseFault("traced:10:27:255"); err != nil || f2.Reg != 27 || f2.Xor != 255 {
		t.Fatalf("parsed %+v err %v", f2, err)
	}
	for _, bad := range []string{
		"", "fast:1:2", "reference:1:1:1", "fast:0:1:1",
		"fast:1:x0:1", "fast:1:x32:1", "fast:1:x5:0", "fast:a:b:c",
	} {
		if _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted", bad)
		}
	}

	// A job spec's fault is held to the same rules.
	var back Fault
	if data, err := json.Marshal(f); err != nil || json.Unmarshal(data, &back) != nil || back != *f {
		t.Fatalf("fault %+v did not round-trip: %+v, %v", f, back, err)
	}
	for _, bad := range []Fault{
		{Tier: TierReference, Instr: 1, Reg: 1, Xor: 1}, {Tier: TierFast, Reg: 1, Xor: 1},
		{Tier: TierFast, Instr: 1, Xor: 1}, {Tier: TierFast, Instr: 1, Reg: 32, Xor: 1}, {Tier: TierFast, Instr: 1, Reg: 1},
	} {
		data, _ := json.Marshal(bad)
		if err := json.Unmarshal(data, new(Fault)); err == nil {
			t.Errorf("fault %s accepted", data)
		}
	}
}

// TestCleanLockstep: an unfaulted workload agrees across all tiers and
// yields nonzero coverage.
func TestCleanLockstep(t *testing.T) {
	e := evaluateEntry(workgen.RandomRecipe(7), nil, 0, false)
	if e.err != "" {
		t.Fatalf("entry error: %s", e.err)
	}
	if e.tier != "" {
		t.Fatalf("clean workload diverged on %s: %s (%s)", e.tier, e.kind, e.detail)
	}
	if e.ref.Instret == 0 || !e.ref.Halted {
		t.Fatalf("reference outcome %+v", e.ref)
	}
	if e.cov.Ratio() == 0 {
		t.Fatal("no coverage recorded")
	}
	if e.cov.Ops == [2]uint64{} {
		t.Fatal("no opcode coverage recorded")
	}
}

// TestSeededFaultBisects is the farm's core self-test: inject a
// single-register corruption at a known retirement count and check the
// bisector lands on exactly that instruction.
func TestSeededFaultBisects(t *testing.T) {
	store := testStore(t)
	recipe := workgen.RandomRecipe(1)
	n := refInstret(t, recipe)
	fault := &Fault{Tier: TierFast, Instr: n / 2, Reg: 27, Xor: 1}

	e := evaluateEntry(recipe, fault, 0, false)
	if e.tier != TierFast {
		t.Fatalf("fault not detected: tier=%q kind=%q", e.tier, e.kind)
	}

	div, err := Bisect(store, assemble(t, recipe), TierFast, fault, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("divergence did not reproduce under bisection")
	}
	if div.Instr != fault.Instr {
		t.Fatalf("bisected to instruction %d, fault injected at %d", div.Instr, fault.Instr)
	}
	if div.Kind != "reg:x27" {
		t.Fatalf("kind %q, want reg:x27 (detail: %s)", div.Kind, div.Detail)
	}
	if div.Sig == "" || div.Disasm == "" {
		t.Fatalf("divergence incomplete: %+v", div)
	}

	// Minimization must preserve the signature and never grow the recipe.
	small, smallDiv := Minimize(store, recipe, div, fault, 0, 0)
	if smallDiv.Sig != div.Sig {
		t.Fatalf("minimized signature %s != original %s", smallDiv.Sig, div.Sig)
	}
	if len(small.Kernels) > len(recipe.Kernels) {
		t.Fatalf("minimization grew the recipe: %d > %d kernels", len(small.Kernels), len(recipe.Kernels))
	}
	if smallDiv.Instr != fault.Instr {
		t.Fatalf("minimized repro bisects to %d, want %d", smallDiv.Instr, fault.Instr)
	}
}

// TestBisectCleanReturnsNil: bisecting a workload with no divergence
// reports "did not reproduce" rather than fabricating a culprit.
func TestBisectCleanReturnsNil(t *testing.T) {
	store := testStore(t)
	recipe := workgen.RandomRecipe(3)
	div, err := Bisect(store, assemble(t, recipe), TierFast, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("clean workload bisected to %+v", div)
	}
}

// TestCoverageGapsAndReport: an empty coverage wants every kernel family;
// a saturated one wants none; Report never panics.
func TestCoverageGapsAndReport(t *testing.T) {
	var c Coverage
	if c.Ratio() != 0 {
		t.Fatalf("empty coverage ratio %v", c.Ratio())
	}
	if len(c.Gaps()) == 0 {
		t.Fatal("empty coverage has no gaps")
	}
	full := Coverage{
		Ops:           genOps,
		Branch:        1<<numBranchShapes - 1,
		Mem:           1<<numMemClasses - 1,
		Fusion:        1<<uint(numFusionKinds) - 1,
		TraceDispatch: true,
		Pages:         64,
	}
	if r := full.Ratio(); r != 1 {
		t.Fatalf("full coverage ratio %v", r)
	}
	if gaps := full.Gaps(); len(gaps) != 0 {
		t.Fatalf("full coverage still wants %v", gaps)
	}
	if full.Report() == "" || c.Report() == "" {
		t.Fatal("empty report")
	}
	var m Coverage
	m.Merge(full)
	if m.Ratio() != 1 {
		t.Fatal("merge lost coverage")
	}
}
