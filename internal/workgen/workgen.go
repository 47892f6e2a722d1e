// Package workgen generates guest benchmark programs (assembly sources)
// for the reproduction's case studies: the SPEC2017 intspeed-like suite of
// §IV-B, the Page Fault Accelerator latency microbenchmark and its
// bare-metal memory server of §IV-A (Listing 1), and the education case
// study's tiled matrix-multiplication program of §IV-C.
//
// SPEC2017 itself is licensed software the paper could not ship either
// (§IV-B.1 step 1 requires users to "acquire and install the SPEC benchmark
// suite sources and a license"); these synthetic programs stand in for the
// ten intspeed benchmarks with per-benchmark branch and memory behaviour
// chosen so predictor and cache effects differentiate the way the real
// suite does.
package workgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// program builds an assembly source: a timed main that runs kernels and
// prints "<name>,<cycles>,<checksum>" before exiting.
type program struct {
	name    string
	text    strings.Builder
	data    strings.Builder
	kernels int
}

func newProgram(name string) *program {
	p := &program{name: name}
	p.text.WriteString("# generated by firemarshal workgen: " + name + "\n")
	p.text.WriteString("_start:\n")
	p.text.WriteString("    rdcycle s10\n")
	p.text.WriteString("    li s11, 0          # checksum\n")
	return p
}

// emit finalizes the program source.
func (p *program) emit() string {
	p.text.WriteString(`
    rdcycle t0
    sub s10, t0, s10
    # print "<name>,<cycles>,<checksum>\n"
    la a1, bench_name
    li a2, ` + fmt.Sprint(len(p.name)) + `
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
`)
	p.data.WriteString(fmt.Sprintf("bench_name: .ascii %q\n", p.name))
	return p.text.String() + "\n.data\n" + p.data.String()
}

// kid returns a unique label prefix per kernel instance.
func (p *program) kid() string {
	p.kernels++
	return fmt.Sprintf("k%d", p.kernels)
}

// patternBranch adds a data-driven branch kernel: iterate `iters` times,
// branching on a byte table of the given period. Short periods are easy
// for any history predictor; long pseudo-random periods reward TAGE's
// geometric histories; fully random tables defeat everyone.
func (p *program) patternBranch(iters, period int, seed int64) {
	id := p.kid()
	rng := rand.New(rand.NewSource(seed))
	p.data.WriteString(id + "_pat:\n")
	for i := 0; i < period; i++ { // 16 bytes a line
		if i%16 == 0 {
			p.data.WriteString("    .byte ")
		} else {
			p.data.WriteString(", ")
		}
		p.data.WriteByte(byte('0' + rng.Intn(2)))
		if i%16 == 15 || i == period-1 {
			p.data.WriteByte('\n')
		}
	}
	fmt.Fprintf(&p.text, `
    # pattern-branch kernel %[1]s: iters=%[2]d period=%[3]d
    la s2, %[1]s_pat
    li s3, %[3]d
    li s0, 0
    li s1, %[2]d
%[1]s_loop:
    remu t0, s0, s3
    add t1, s2, t0
    lbu t2, 0(t1)
    beqz t2, %[1]s_skip
    addi s11, s11, 1
%[1]s_skip:
    addi s0, s0, 1
    blt s0, s1, %[1]s_loop
`, id, iters, period)
}

// pointerChase adds a linked-list traversal over `nodes` 8-byte cells laid
// out in a seeded random permutation — the classic cache-hostile kernel
// (605.mcf-style). steps is the number of pointer dereferences.
func (p *program) pointerChase(steps, nodes int, seed int64) {
	id := p.kid()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nodes)
	// next[perm[i]] = perm[i+1]; cycle closes.
	next := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		next[perm[i]] = perm[(i+1)%nodes]
	}
	p.data.WriteString("    .align 3\n" + id + "_chain:\n")
	prefix := "    .dword " + id + "_chain+"
	p.data.Grow(nodes * (len(prefix) + 8))
	var off []byte
	for _, n := range next {
		p.data.WriteString(prefix)
		off = strconv.AppendInt(off[:0], int64(n*8), 10)
		p.data.Write(off)
		p.data.WriteByte('\n')
	}
	fmt.Fprintf(&p.text, `
    # pointer-chase kernel %[1]s: steps=%[2]d nodes=%[3]d
    la t1, %[1]s_chain
    li s0, 0
    li s1, %[2]d
%[1]s_loop:
    ld t1, 0(t1)
    addi s0, s0, 1
    blt s0, s1, %[1]s_loop
    add s11, s11, t1
`, id, steps, nodes)
}

// streamSum adds a sequential reduction over an array — cache-friendly
// memory traffic.
func (p *program) streamSum(iters, words int) {
	id := p.kid()
	p.data.WriteString(fmt.Sprintf("    .align 3\n%s_arr: .space %d\n", id, words*8))
	fmt.Fprintf(&p.text, `
    # stream-sum kernel %[1]s: iters=%[2]d words=%[3]d
    li s0, 0
    li s1, %[2]d
%[1]s_outer:
    la t1, %[1]s_arr
    li t2, 0
    li t3, %[3]d
%[1]s_inner:
    ld t4, 0(t1)
    add s11, s11, t4
    addi t1, t1, 8
    addi t2, t2, 1
    blt t2, t3, %[1]s_inner
    addi s0, s0, 1
    blt s0, s1, %[1]s_outer
`, id, iters, words)
}

// alu adds a dependent integer arithmetic chain (x264/exchange2-style
// compute).
func (p *program) alu(iters int, useMul bool) {
	id := p.kid()
	op := "add t2, t2, t3"
	if useMul {
		op = "mul t2, t2, t3"
	}
	fmt.Fprintf(&p.text, `
    # alu kernel %[1]s: iters=%[2]d mul=%[3]v
    li s0, 0
    li s1, %[2]d
    li t2, 1
    li t3, 3
%[1]s_loop:
    %[4]s
    xor t3, t3, t2
    ori t3, t3, 1
    addi s0, s0, 1
    blt s0, s1, %[1]s_loop
    add s11, s11, t2
`, id, iters, useMul, op)
}

// storeFill adds a read-modify-write sweep with mixed store widths (sb/sh/
// sw/sd) — it exercises the interpreter's store fast paths and the
// code-invalidation guard on the data segment.
func (p *program) storeFill(iters, words int) {
	id := p.kid()
	p.data.WriteString(fmt.Sprintf("    .align 3\n%s_buf: .space %d\n", id, words*8))
	fmt.Fprintf(&p.text, `
    # store-fill kernel %[1]s: iters=%[2]d words=%[3]d
    li s0, 0
    li s1, %[2]d
%[1]s_outer:
    la t1, %[1]s_buf
    li t2, 0
    li t3, %[3]d
%[1]s_inner:
    ld t4, 0(t1)
    add t4, t4, t2
    sd t4, 0(t1)
    sb t4, 3(t1)
    sh t4, 4(t1)
    sw t4, 4(t1)
    addi t1, t1, 8
    addi t2, t2, 1
    blt t2, t3, %[1]s_inner
    addi s0, s0, 1
    blt s0, s1, %[1]s_outer
    la t1, %[1]s_buf
    ld t4, 8(t1)
    add s11, s11, t4
`, id, iters, words)
}

// loopHeavy adds a tight nested loop saturated with the adjacent pairs
// the trace compiler macro-fuses — lui+addi constants, addi+ld and
// addi+sd address bumps, add+add accumulation, addi+addi induction
// bumps, slt+bnez compare-and-branch back edges — so a closed-loop
// superblock covers nearly every retired instruction and every inner
// op is a fused pair. This is the loop-dominated shape (inference
// kernels, stream processing) that trace dispatch accelerates most;
// internal/sim's TestTraceTierPays holds the trace tier's coverage on it.
func (p *program) loopHeavy(outer, inner int) {
	id := p.kid()
	p.data.WriteString(fmt.Sprintf("    .align 3\n%s_buf: .space %d\n", id, (inner+1)*8))
	fmt.Fprintf(&p.text, `
    # loop-heavy kernel %[1]s: outer=%[2]d inner=%[3]d (fusion-rich)
    li s0, 0
    li s1, %[2]d
%[1]s_outer:
    la t1, %[1]s_buf
    li t2, 0
    li t3, %[3]d
%[1]s_inner:
    addi t4, t1, 8
    ld t5, 0(t4)
    lui t6, 0x12
    addi t6, t6, 0x345
    add t5, t5, t6
    add s11, s11, t5
    addi t4, t1, 16
    sd t5, -8(t4)
    addi t1, t1, 8
    addi t2, t2, 1
    slt t0, t2, t3
    bnez t0, %[1]s_inner
    addi s0, s0, 1
    slt t0, s0, s1
    bnez t0, %[1]s_outer
`, id, outer, inner)
}

// LoopHeavySource returns the standalone loop-heavy workload (see
// loopHeavy) used by the trace-compiler benchmark tier and gates.
func LoopHeavySource(outer, inner int) string {
	p := newProgram("loopheavy")
	p.loopHeavy(outer, inner)
	return p.emit()
}

// RandomSource returns a deterministic pseudo-random program composed from
// the kernel library — the differential fuzzer's workload generator. The
// same seed always yields the same source; every program prints its cycle
// count and checksum and exits via ecall 93. It is the emitted form of
// RandomRecipe (recipe.go), which preserves the original draw order so
// historical seeds keep their exact workloads.
func RandomSource(seed int64) string {
	return RandomRecipe(seed).Source()
}

// divide adds a division-heavy kernel (xz-style).
func (p *program) divide(iters int) {
	id := p.kid()
	fmt.Fprintf(&p.text, `
    # divide kernel %[1]s: iters=%[2]d
    li s0, 0
    li s1, %[2]d
    li t2, 0x7fffffff
%[1]s_loop:
    li t3, 3
    div t2, t2, t3
    bnez t2, %[1]s_ok
    li t2, 0x7fffffff
%[1]s_ok:
    addi s0, s0, 1
    blt s0, s1, %[1]s_loop
    add s11, s11, t2
`, id, iters)
}
