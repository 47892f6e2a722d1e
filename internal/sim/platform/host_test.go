package platform_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/cas"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/approxsim"
	"firemarshal/internal/sim/funcsim"
	"firemarshal/internal/sim/rtlsim"
)

// kernelProg prints argv[1], pokes the UART, then runs a 3000-iteration
// loop of stores, loads, multiplies, a divide and a W remainder whose
// divisor is zero every 256th time, prints the checksum and exits 5.
const kernelProg = `
_start:
    ld   t0, 8(a1)
    mv   t1, t0
len:
    lbu  t2, 0(t1)
    beqz t2, done
    addi t1, t1, 1
    j    len
done:
    sub  a2, t1, t0
    mv   a1, t0
    li   a0, 1
    li   a7, 64
    ecall
    li   t0, 0x54000000
    li   t1, 33
    sb   t1, 0(t0)
    li   s0, 3000
    li   s1, 1
    li   s2, 0x100000
loop:
    andi t0, s0, 255
    slli t1, t0, 3
    add  t2, s2, t1
    sd   s1, 0(t2)
    ld   t3, 0(t2)
    add  s1, s1, t3
    mul  s1, s1, s0
    divu t4, s1, s0
    remw t5, s1, t0
    xor  s1, s1, t4
    add  s1, s1, t5
    sltu t6, s1, s0
    add  s1, s1, t6
    addi s0, s0, -1
    bnez s0, loop
    mv   a0, s1
    li   a7, 0x101
    ecall
    li   a0, 5
    li   a7, 93
    ecall
`

func assemble(t *testing.T, src string) *isa.Executable {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// TestPlatformsShareOneKernel runs one executable with one argv on all
// three platforms. What the kernel owns must agree — console, exit code,
// retired count, and a node clock that moves by Charge plus what each exec
// cost — and what each timing model owns must be what it was before the
// kernel existed: the cycle counts below were printed by the parent
// commit's approxsim and rtlsim for this program.
func TestPlatformsShareOneKernel(t *testing.T) {
	exe := assemble(t, kernelProg)
	rtl, err := rtlsim.New(rtlsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p      sim.Platform
		name   string
		cycles [2]uint64
	}{
		{funcsim.New(funcsim.Config{}), "qemu", [2]uint64{45070, 45042}},
		{approxsim.New(approxsim.DefaultConfig()), "gem5-approx", [2]uint64{178707, 178661}},
		{rtl, "firesim", [2]uint64{169244, 168174}},
	} {
		if tc.p.Name() != tc.name {
			t.Errorf("Name() = %q, want %q", tc.p.Name(), tc.name)
		}
		var console bytes.Buffer
		tc.p.Charge(100)
		clock := uint64(100)
		for i, arg := range []string{"hello-kernel", "again"} {
			res, err := tc.p.Exec(exe, &console, "prog", arg)
			if err != nil {
				t.Fatalf("%s exec %d: %v", tc.name, i, err)
			}
			wantInstrs := []uint64{45070, 45042}[i]
			if res.Exit != 5 || res.Instrs != wantInstrs || res.Cycles != tc.cycles[i] {
				t.Errorf("%s exec %d = %+v, want exit 5, %d instrs, %d cycles", tc.name, i, *res, wantInstrs, tc.cycles[i])
			}
			clock += res.Cycles
			if tc.p.Cycles() != clock {
				t.Errorf("%s clock after exec %d = %d, want %d", tc.name, i, tc.p.Cycles(), clock)
			}
		}
		if got, want := console.String(), "hello-kernel!1again!1"; got != want {
			t.Errorf("%s console = %q, want %q", tc.name, got, want)
		}
	}
}

// shortProg is the node's first exec in the kill-and-resume test: done long
// before the instruction limit that kills the second.
const shortProg = `
_start:
    li a0, 42
    li a7, 0x101
    ecall
    li a0, 3
    li a7, 93
    ecall
`

// A run killed mid-exec and resumed through the kernel — the first exec
// replayed from its record, the second restored from its last snapshot —
// equals the uninterrupted run on both platforms that checkpoint.
func TestKernelKillAndResume(t *testing.T) {
	exes := []*isa.Executable{assemble(t, shortProg), assemble(t, kernelProg)}
	builders := map[string]func(rt *checkpoint.Runtime, maxInstrs uint64) sim.Platform{
		"funcsim": func(rt *checkpoint.Runtime, maxInstrs uint64) sim.Platform {
			return funcsim.New(funcsim.Config{Ckpt: rt, MaxInstrs: maxInstrs})
		},
		"rtlsim": func(rt *checkpoint.Runtime, maxInstrs uint64) sim.Platform {
			cfg := rtlsim.DefaultConfig()
			cfg.Ckpt, cfg.MaxInstrs = rt, maxInstrs
			p, err := rtlsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := cas.Open(filepath.Join(dir, "cas"))
			if err != nil {
				t.Fatal(err)
			}
			// attempt issues the node's two execs. A nonzero maxInstrs below
			// the second exec's length kills it mid-flight with several
			// snapshots behind it: the deterministic stand-in for a crash.
			attempt := func(ptrDir string, resume bool, maxInstrs uint64) (sim.Platform, []sim.ExecResult, string, error) {
				rt, err := checkpoint.Open(checkpoint.Config{Store: store, Dir: filepath.Join(dir, ptrDir), Job: "node0", Every: 7001}, resume)
				if err != nil {
					t.Fatal(err)
				}
				p := build(rt, maxInstrs)
				var console bytes.Buffer
				var results []sim.ExecResult
				for _, exe := range exes {
					res, err := p.Exec(exe, &console, "prog", "an-argument")
					if err != nil {
						return p, results, console.String(), err
					}
					results = append(results, *res)
				}
				return p, results, console.String(), nil
			}

			straightP, straight, straightConsole, err := attempt("ref", false, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, partial, _, err := attempt("run", false, 30000)
			if err == nil || len(partial) != 1 {
				t.Fatalf("bounded attempt: err=%v after %d execs, want a kill during exec 1", err, len(partial))
			}
			if !strings.HasPrefix(err.Error(), name+": ") {
				t.Errorf("kernel error %q is not prefixed with %s", err, name)
			}
			ptr, err := checkpoint.LoadPointer(checkpoint.PointerPath(filepath.Join(dir, "run"), "node0"))
			if err != nil || ptr.Exec != 1 {
				t.Fatalf("pointer after the kill: %+v, %v; want one for exec 1", ptr, err)
			}

			resumedP, resumed, resumedConsole, err := attempt("run", true, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(resumed) != 2 || resumed[0] != straight[0] || resumed[1] != straight[1] {
				t.Errorf("resumed %+v, straight %+v", resumed, straight)
			}
			if resumedP.Cycles() != straightP.Cycles() {
				t.Errorf("clock %d, want %d", resumedP.Cycles(), straightP.Cycles())
			}
			if resumedConsole != straightConsole {
				t.Errorf("console %q, want %q", resumedConsole, straightConsole)
			}
			if r, ok := resumedP.(*rtlsim.Platform); ok && r.Stats() != straightP.(*rtlsim.Platform).Stats() {
				t.Errorf("timing stats diverge:\nresumed  %+v\nstraight %+v", r.Stats(), straightP.(*rtlsim.Platform).Stats())
			}
		})
	}
}

type fixedDevice struct {
	name   string
	lo, hi uint64
}

func (d fixedDevice) Name() string                { return d.name }
func (d fixedDevice) AddrRange() (uint64, uint64) { return d.lo, d.hi }
func (d fixedDevice) Load(*sim.Machine, uint64, int) (uint64, uint64, error) {
	return 0, 0, nil
}
func (d fixedDevice) Store(*sim.Machine, uint64, int, uint64) (uint64, error) { return 0, nil }

// Two devices claiming one address have no single owner: the next Exec
// fails and says which two, on every platform, instead of one silently
// shadowing the other. Adjacent ranges are fine.
func TestOverlappingDevicesFailExec(t *testing.T) {
	exe := assemble(t, kernelProg)
	rtl, err := rtlsim.New(rtlsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []sim.Platform{funcsim.New(funcsim.Config{}), approxsim.New(approxsim.DefaultConfig()), rtl} {
		p.AddDevice(fixedDevice{"left", 0x60000000, 0x60001000})
		p.AddDevice(fixedDevice{"right", 0x60001000, 0x60002000})
		if _, err := p.Exec(exe, &bytes.Buffer{}, "prog", "ok"); err != nil {
			t.Fatalf("%s: adjacent devices: %v", p.Name(), err)
		}
		p.AddDevice(fixedDevice{"middle", 0x60000800, 0x60001800})
		_, err := p.Exec(exe, &bytes.Buffer{}, "prog", "overlap")
		if err == nil {
			t.Fatalf("%s: Exec with overlapping devices succeeded", p.Name())
		}
		if !strings.Contains(err.Error(), "left") || !strings.Contains(err.Error(), "middle") {
			t.Errorf("%s: error %q does not name both devices", p.Name(), err)
		}
	}
}
