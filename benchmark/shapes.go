package main

import (
	"embed"
	"fmt"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/workgen"
)

//go:embed shapes/*.s
var shapeFS embed.FS

// kernelCost is the approximate number of retired instructions one unit
// of a kernel's A parameter costs (with B as given), so a program can be
// sized by its instruction budget. The exact counts are pinned in the
// goldens; these only have to land a job near its nominal size.
func kernelCost(kind workgen.KernelKind, b int) float64 {
	switch kind {
	case workgen.KPatternBranch:
		return 6.6
	case workgen.KPointerChase:
		return 3
	case workgen.KStreamSum:
		return float64(5*b + 5)
	case workgen.KALU:
		return 5
	case workgen.KDivide:
		return 5
	case workgen.KStoreFill:
		return float64(9*b + 5)
	default: // KLoopHeavy
		return float64(12*b + 6)
	}
}

// sized returns a kernel of the given kind and B whose A is chosen to
// retire about instrs instructions.
func sized(kind workgen.KernelKind, b int, instrs float64, seed int64, flag bool) workgen.Kernel {
	a := int(instrs / kernelCost(kind, b))
	if a < 1 {
		a = 1
	}
	return workgen.Kernel{Kind: kind, A: a, B: b, Seed: seed, Flag: flag}
}

// program describes one guest program of the benchmark: a single-kernel
// shape or an intspeed-style mix of kernels.
type program struct {
	name string
	// kernels returns the recipe for an instruction budget; nil for the
	// hand-written shapes, whose body is shapes/<name>.s.
	kernels func(instrs float64, seed int64) []workgen.Kernel
	// iterCost is the hand-written loop's instructions per iteration.
	iterCost float64
}

// shapes are the ten single-kernel programs of the tier x shape matrix.
// They come first in programs; the four mixes follow.
const numShapes = 10

var programs = []program{
	{name: "loop_heavy", kernels: func(n float64, _ int64) []workgen.Kernel {
		return []workgen.Kernel{sized(workgen.KLoopHeavy, 64, n, 0, false)}
	}},
	{name: "branchy", kernels: func(n float64, seed int64) []workgen.Kernel {
		return []workgen.Kernel{sized(workgen.KPatternBranch, 96, n, seed, false)}
	}},
	// 64 Ki nodes x 8 B = 512 KiB: misses the modelled 16 KiB D$ and
	// walks more pages than the soft-TLB holds. (Programs too short to
	// walk that chain once, the smoke scale's, get 1 Ki nodes: assembling
	// 64 Ki data lines would be most of their set-up.)
	{name: "mem_chase", kernels: func(n float64, seed int64) []workgen.Kernel {
		nodes := 64 << 10
		if n < 3*float64(nodes) {
			nodes = 1 << 10
		}
		return []workgen.Kernel{sized(workgen.KPointerChase, nodes, n, seed+1, false)}
	}},
	{name: "stream", kernels: func(n float64, _ int64) []workgen.Kernel {
		return []workgen.Kernel{sized(workgen.KStreamSum, 2048, n, 0, false)}
	}},
	{name: "alu_mul", kernels: func(n float64, _ int64) []workgen.Kernel {
		return []workgen.Kernel{sized(workgen.KALU, 0, n, 0, true)}
	}},
	{name: "divide", kernels: func(n float64, _ int64) []workgen.Kernel {
		return []workgen.Kernel{sized(workgen.KDivide, 0, n, 0, false)}
	}},
	{name: "store_fill", kernels: func(n float64, _ int64) []workgen.Kernel {
		return []workgen.Kernel{sized(workgen.KStoreFill, 1024, n, 0, false)}
	}},
	{name: "call_heavy", iterCost: 11.75},
	{name: "smc", iterCost: 5.05},
	{name: "mmio", iterCost: 5},

	// Intspeed-style mixes: the kernel blends of workgen.IntSpeedSuite's
	// perlbench, gcc, mcf and xz stand-ins, rescaled to one budget.
	{name: "mix_perl", kernels: func(n float64, seed int64) []workgen.Kernel {
		return []workgen.Kernel{
			sized(workgen.KPatternBranch, 96, 0.55*n, seed+2, false),
			sized(workgen.KPatternBranch, 48, 0.35*n, seed+3, false),
			sized(workgen.KALU, 0, 0.10*n, 0, false),
		}
	}},
	{name: "mix_gcc", kernels: func(n float64, seed int64) []workgen.Kernel {
		return []workgen.Kernel{
			sized(workgen.KPatternBranch, 24, 0.55*n, seed+4, false),
			sized(workgen.KPointerChase, 2048, 0.10*n, seed+5, false),
			sized(workgen.KPatternBranch, 7, 0.35*n, seed+6, false),
		}
	}},
	{name: "mix_mcf", kernels: func(n float64, seed int64) []workgen.Kernel {
		return []workgen.Kernel{
			sized(workgen.KPointerChase, 8192, 0.75*n, seed+7, false),
			sized(workgen.KPatternBranch, 12, 0.25*n, seed+8, false),
		}
	}},
	{name: "mix_xz", kernels: func(n float64, seed int64) []workgen.Kernel {
		return []workgen.Kernel{
			sized(workgen.KDivide, 0, 0.20*n, 0, false),
			sized(workgen.KStreamSum, 4096, 0.35*n, 0, false),
			sized(workgen.KPatternBranch, 20, 0.45*n, seed+9, false),
		}
	}},
}

// handPrologue and handEpilogue wrap a hand-written kernel body the way
// workgen wraps its kernels: time the body with rdcycle, keep a checksum
// in s11, print "<name>,<cycles>,<checksum>" and exit 0.
const handPrologue = `_start:
    rdcycle s10
    li s11, 0
`

const handEpilogue = `
    rdcycle t0
    sub s10, t0, s10
    la a1, bench_name
    li a2, %d
    li a0, 1
    li a7, 64
    ecall
    li a0, ','
    li a7, 0x102
    ecall
    mv a0, s10
    li a7, 0x101
    ecall
    li a0, ','
    li a7, 0x102
    ecall
    mv a0, s11
    li a7, 0x101
    ecall
    li a0, 10
    li a7, 0x102
    ecall
    li a0, 0
    li a7, 93
    ecall
.data
bench_name: .ascii %q
`

// source returns the program's assembly for an instruction budget. The
// seed reaches only kernel data tables (branch patterns, chase
// permutations); the hand-written shapes have none.
func (p program) source(instrs float64, seed int64) (string, error) {
	if p.kernels != nil {
		return workgen.Recipe{Name: p.name, Kernels: p.kernels(instrs, seed)}.Source(), nil
	}
	body, err := shapeFS.ReadFile("shapes/" + p.name + ".s")
	if err != nil {
		return "", err
	}
	iters := int(instrs / p.iterCost)
	if iters < 64 {
		iters = 64
	}
	return fmt.Sprintf(".equ ITERS, %d\n", iters) + handPrologue + string(body) +
		fmt.Sprintf(handEpilogue, len(p.name), p.name), nil
}

// assemble builds the program into a guest executable.
func (p program) assemble(instrs float64, seed int64) (*isa.Executable, error) {
	src, err := p.source(instrs, seed)
	if err != nil {
		return nil, err
	}
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		return nil, fmt.Errorf("assembling %s: %w", p.name, err)
	}
	return exe, nil
}
