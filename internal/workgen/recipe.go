// Recipe is the structured form of a generated workload: instead of going
// straight from a seed to assembly text, generation first produces a list
// of parameterized kernel instances. The indirection is what makes the
// verification farm possible — a recipe can be mutated toward coverage
// gaps, minimized kernel-by-kernel into a repro, serialized into the CAS,
// and always re-emitted into byte-identical assembly.
//
// RandomRecipe draws from the generator RNG in exactly the order the old
// RandomSource did, so RandomSource(seed) == RandomRecipe(seed).Source()
// for every seed (locked by TestRecipeMatchesRandomSource) and the
// differential suites' pinned seeds keep their exact workloads.
package workgen

import (
	"fmt"
	"math/rand"
)

// KernelKind identifies one generator from the kernel library.
type KernelKind int

const (
	KPatternBranch KernelKind = iota
	KPointerChase
	KStreamSum
	KALU
	KDivide
	KStoreFill
	KLoopHeavy
	NumKernelKinds // count sentinel, not a kind
)

// String names a kind for manifests and logs.
func (k KernelKind) String() string {
	switch k {
	case KPatternBranch:
		return "pattern-branch"
	case KPointerChase:
		return "pointer-chase"
	case KStreamSum:
		return "stream-sum"
	case KALU:
		return "alu"
	case KDivide:
		return "divide"
	case KStoreFill:
		return "store-fill"
	case KLoopHeavy:
		return "loop-heavy"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kernel is one parameterized kernel instance. A and B are the two shape
// parameters in the order the kernel's emit method takes them (iterations
// then table size, outer then inner, ...); Seed feeds data-table
// generation for the kinds that have one; Flag selects the ALU kernel's
// multiply variant.
type Kernel struct {
	Kind KernelKind `json:"kind"`
	A    int        `json:"a"`
	B    int        `json:"b,omitempty"`
	Seed int64      `json:"seed,omitempty"`
	Flag bool       `json:"flag,omitempty"`
}

// kernelMin holds the smallest legal A/B per kind; mutation and
// minimization clamp against it so a shrunken recipe still assembles and
// terminates. Randomly drawn parameters always sit above these floors.
var kernelMin = [NumKernelKinds]Kernel{
	KPatternBranch: {A: 1, B: 1},
	KPointerChase:  {A: 1, B: 1},
	KStreamSum:     {A: 1, B: 1},
	KALU:           {A: 1},
	KDivide:        {A: 1},
	KStoreFill:     {A: 1, B: 1},
	KLoopHeavy:     {A: 1, B: 1},
}

// Clamped returns the kernel with A/B raised to their legal minimums.
func (k Kernel) Clamped() Kernel {
	if int(k.Kind) < 0 || k.Kind >= NumKernelKinds {
		k.Kind = KALU
	}
	min := kernelMin[k.Kind]
	if k.A < min.A {
		k.A = min.A
	}
	if k.B < min.B {
		k.B = min.B
	}
	return k
}

// emit appends the kernel to a program under construction.
func (k Kernel) emit(p *program) {
	k = k.Clamped()
	switch k.Kind {
	case KPatternBranch:
		p.patternBranch(k.A, k.B, k.Seed)
	case KPointerChase:
		p.pointerChase(k.A, k.B, k.Seed)
	case KStreamSum:
		p.streamSum(k.A, k.B)
	case KALU:
		p.alu(k.A, k.Flag)
	case KDivide:
		p.divide(k.A)
	case KStoreFill:
		p.storeFill(k.A, k.B)
	case KLoopHeavy:
		p.loopHeavy(k.A, k.B)
	}
}

// Recipe is a complete workload: an ordered list of kernels plus the name
// baked into the program's output line.
type Recipe struct {
	Name    string   `json:"name"`
	Seed    int64    `json:"seed,omitempty"`
	Kernels []Kernel `json:"kernels"`
}

// Source emits the recipe as assembly text. Emission is pure: the same
// recipe value always yields byte-identical source.
func (r Recipe) Source() string {
	p := newProgram(r.Name)
	for _, k := range r.Kernels {
		k.emit(p)
	}
	return p.emit()
}

// Clone returns a deep copy (the kernel slice is not shared).
func (r Recipe) Clone() Recipe {
	r.Kernels = append([]Kernel(nil), r.Kernels...)
	return r
}

// KernelOfKind draws a kernel of a specific kind: the kind's parameter
// draws in argument order. It is the one parameter table — RandomRecipe
// draws the kind and then calls it, and the coverage-guided mutator calls
// it to steer generation toward kinds the corpus has not exercised.
func KernelOfKind(rng *rand.Rand, kind KernelKind) Kernel {
	switch kind {
	case KPatternBranch:
		return Kernel{Kind: KPatternBranch, A: 200 + rng.Intn(800), B: 4 + rng.Intn(60), Seed: rng.Int63()}
	case KPointerChase:
		return Kernel{Kind: KPointerChase, A: 200 + rng.Intn(800), B: 16 + rng.Intn(240), Seed: rng.Int63()}
	case KStreamSum:
		return Kernel{Kind: KStreamSum, A: 2 + rng.Intn(8), B: 16 + rng.Intn(200)}
	case KALU:
		return Kernel{Kind: KALU, A: 300 + rng.Intn(1000), Flag: rng.Intn(2) == 0}
	case KDivide:
		return Kernel{Kind: KDivide, A: 100 + rng.Intn(300)}
	case KStoreFill:
		return Kernel{Kind: KStoreFill, A: 2 + rng.Intn(6), B: 8 + rng.Intn(100)}
	default:
		return Kernel{Kind: KLoopHeavy, A: 2 + rng.Intn(16), B: 8 + rng.Intn(56)}
	}
}

// RandomRecipe returns the deterministic pseudo-random recipe for a seed:
// 2–4 kernels drawn from the library. Same seed, same recipe, always.
func RandomRecipe(seed int64) Recipe {
	rng := rand.New(rand.NewSource(seed))
	r := Recipe{Name: fmt.Sprintf("fuzz%04x", uint16(seed)), Seed: seed}
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		// One Intn for the kind, then its parameters: the original
		// RandomSource's draw order, so seeds keep their workloads.
		r.Kernels = append(r.Kernels, KernelOfKind(rng, KernelKind(rng.Intn(int(NumKernelKinds)))))
	}
	return r
}

// Mutate returns a mutated copy of the recipe, drawing every decision
// from rng (deterministic under a fixed rng state). When bias is
// non-empty, kernel-kind draws come from it — the farm passes the kinds
// its coverage model reports as unexercised, steering the corpus toward
// gaps. Mutations: replace a kernel, append one (capped at 6), drop one
// (floor 1), or perturb one kernel's parameters in place.
func (r Recipe) Mutate(rng *rand.Rand, bias []KernelKind) Recipe {
	out := r.Clone()
	pick := func() KernelKind {
		if len(bias) > 0 {
			return bias[rng.Intn(len(bias))]
		}
		return KernelKind(rng.Intn(int(NumKernelKinds)))
	}
	switch op := rng.Intn(4); {
	case op == 0 && len(out.Kernels) > 0: // replace
		out.Kernels[rng.Intn(len(out.Kernels))] = KernelOfKind(rng, pick())
	case op == 1 && len(out.Kernels) < 6: // append
		out.Kernels = append(out.Kernels, KernelOfKind(rng, pick()))
	case op == 2 && len(out.Kernels) > 1: // drop
		i := rng.Intn(len(out.Kernels))
		out.Kernels = append(out.Kernels[:i], out.Kernels[i+1:]...)
	default: // perturb parameters
		if len(out.Kernels) == 0 {
			out.Kernels = append(out.Kernels, KernelOfKind(rng, pick()))
			break
		}
		k := &out.Kernels[rng.Intn(len(out.Kernels))]
		k.A = 1 + rng.Intn(2*k.A+1)
		if k.B > 0 {
			k.B = 1 + rng.Intn(2*k.B+1)
		}
		if k.Seed != 0 {
			k.Seed = rng.Int63()
		}
		*k = k.Clamped()
	}
	return out
}
