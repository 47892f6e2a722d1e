package rtlsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
	"firemarshal/internal/workgen"
)

// timedLoop drives a machine to halt, charging every retired instruction.
// sim.RunTimed is the predecoded loop (no hooks, trace writer or tamper
// function is installed on these machines); refLoop is the reference.
type timedLoop func(m *sim.Machine, charge func(*sim.Event) uint64) (uint64, error)

// refLoop retires through RunBatch/StepInto alone: the loop every timed run
// took before the predecoded loop learned to charge, and the one hooks,
// tracing and fault injection still select.
func refLoop(m *sim.Machine, charge func(*sim.Event) uint64) (uint64, error) {
	start := m.Instret
	for !m.Halted {
		if _, err := m.RunBatch(4096, charge); err != nil {
			return m.Instret - start, err
		}
	}
	return m.Instret - start, nil
}

// retired is what the recording charge keeps of one Event: every field a
// timing model may read.
type retired struct {
	PC, MemAddr, Extra   uint64
	Op                   isa.Op
	Taken, MMIO, Syscall bool
}

// recorder is the charge of one leg: it keeps each Event, counts those the
// predecoded loop's switch retired inline (the only events that arrive
// without a NextPC), and passes the event on to the platform's own model.
type recorder struct {
	events []retired
	inline int
	// onCharge, when set, is called after each charge with the number of
	// events charged so far.
	onCharge func(n int)
}

func (r *recorder) charge(p *Platform) func(*sim.Event) uint64 {
	return func(ev *sim.Event) uint64 {
		r.events = append(r.events, retired{
			PC: ev.PC, MemAddr: ev.MemAddr, Extra: ev.Extra, Op: ev.Instr.Op,
			Taken: ev.Taken, MMIO: ev.MMIO, Syscall: ev.Syscall,
		})
		if ev.NextPC == 0 {
			r.inline++
		}
		c := p.charge(ev)
		if r.onCharge != nil {
			r.onCharge(len(r.events))
		}
		return c
	}
}

// execOn is Exec with the loop chosen by the caller and rec around the
// timing model.
func execOn(p *Platform, loop timedLoop, rec *recorder, exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	charge := rec.charge(p)
	res, err := p.Run(exe, console, args, p.injectFault, func(m *sim.Machine) (uint64, error) {
		return loop(m, charge)
	})
	if err == nil {
		p.stats.Instrs += res.Instrs
		p.stats.Cycles += res.Cycles
	}
	return res, err
}

// leg is everything one loop's run of a program shows.
type leg struct {
	res     sim.ExecResult
	err     string
	cycles  uint64
	stats   Stats
	console string
	rec     recorder
}

func runLeg(t *testing.T, cfg Config, exe *isa.Executable, loop timedLoop) leg {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var l leg
	var console bytes.Buffer
	var res *sim.ExecResult
	if loop == nil {
		res, err = p.Exec(exe, &console, "prog")
	} else {
		res, err = execOn(p, loop, &l.rec, exe, &console, "prog")
	}
	if err == nil {
		l.res = *res
	} else {
		l.err = err.Error()
	}
	l.cycles, l.stats, l.console = p.Cycles(), p.Stats(), console.String()
	return l
}

// diffTimed runs src cycle-exactly on both loops and demands the same
// result or error, clock, all ten Stats fields, console and charged event
// stream; and that Exec itself agrees with the predecoded leg.
func diffTimed(t *testing.T, cfg Config, src string) {
	t.Helper()
	exe := build(t, src)
	ref := runLeg(t, cfg, exe, refLoop)
	fast := runLeg(t, cfg, exe, sim.RunTimed)
	if ref.res != fast.res || ref.err != fast.err {
		t.Errorf("result: reference %+v %q, predecoded %+v %q", ref.res, ref.err, fast.res, fast.err)
	}
	if ref.cycles != fast.cycles {
		t.Errorf("clock: reference %d, predecoded %d", ref.cycles, fast.cycles)
	}
	if ref.stats != fast.stats {
		t.Errorf("stats:\nreference  %+v\npredecoded %+v", ref.stats, fast.stats)
	}
	if ref.console != fast.console {
		t.Errorf("console: reference %q, predecoded %q", ref.console, fast.console)
	}
	if n, m := len(ref.rec.events), len(fast.rec.events); n != m {
		t.Errorf("charged %d events on the reference loop, %d on the predecoded one", n, m)
	}
	for i := range min(len(ref.rec.events), len(fast.rec.events)) {
		if ref.rec.events[i] != fast.rec.events[i] {
			t.Errorf("event %d: reference %+v, predecoded %+v", i, ref.rec.events[i], fast.rec.events[i])
			break
		}
	}
	if ref.rec.inline != 0 || fast.rec.inline == 0 {
		t.Errorf("%d reference and %d predecoded events came from the switch: want none and some", ref.rec.inline, fast.rec.inline)
	}
	exec := runLeg(t, cfg, exe, nil)
	if exec.res != fast.res || exec.err != fast.err || exec.cycles != fast.cycles || exec.stats != fast.stats || exec.console != fast.console {
		t.Errorf("Exec %+v %q (clock %d, %+v) differs from the predecoded leg", exec.res, exec.err, exec.cycles, exec.stats)
	}
}

// cycleReadProg reads the cycle counter mid-run every 64 iterations, by
// rdcycle and by SysGetCycle, and prints both: the console holds the exact
// Now each slow step saw.
const cycleReadProg = `
_start:
    li s0, 700
    li s1, 1
loop:
    mul  s1, s1, s0
    addi s1, s1, 7
    andi t0, s0, 63
    bnez t0, skip
    rdcycle a0
    li a7, 0x101
    ecall
    li a7, 0x103
    ecall
    li a7, 0x101
    ecall
skip:
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
`

// mmioProg polls the UART's status register and transmits through its data
// register every iteration, between ordinary loads and stores.
const mmioProg = `
_start:
    li s0, 400
    li s1, 0x54000000
    li s2, 0x100000
loop:
    lw   t0, 0(s1)
    add  s3, s3, t0
    andi t1, s0, 15
    addi t1, t1, 65
    sb   t1, 0(s1)
    sd   s3, 0(s2)
    ld   t2, 0(s2)
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
`

// smcLoopProg rewrites an instruction of its own loop on every 50th
// iteration, alternating it between two immediates, so the rewritten word
// executes in both forms.
const smcLoopProg = `
_start:
    li s0, 600
    li s11, 0
    la t1, site
    li t3, 0x002d8d93     # addi s11, s11, 2
    li t4, 0x001d8d93     # addi s11, s11, 1
loop:
site:
    addi s11, s11, 1
    li t0, 50
    rem t0, s0, t0
    bnez t0, next
    sw t3, 0(t1)
    mv t5, t3
    mv t3, t4
    mv t4, t5
next:
    addi s0, s0, -1
    bnez s0, loop
    andi a0, s11, 255
    li a7, 93
    ecall
`

// TestTimedLoopMatchesReference locks the predecoded timed loop to the
// reference one on the intspeed suite, generated programs, and the slow
// paths it must hand to StepInto: syscalls and cycle reads, MMIO,
// self-modifying code, and the instruction-limit trap.
func TestTimedLoopMatchesReference(t *testing.T) {
	for _, b := range workgen.IntSpeedSuite() {
		t.Run(b.Name, func(t *testing.T) { diffTimed(t, DefaultConfig(), b.Source("test")) })
	}
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) {
			diffTimed(t, DefaultConfig(), workgen.RandomSource(seed))
		})
	}
	for name, src := range map[string]string{
		"cycle-reads": cycleReadProg,
		"mmio":        mmioProg,
		"smc-loop":    smcLoopProg,
		"mixed":       ckptProgMixed(2000),
		"branchy":     ckptProgBranchy(2000),
	} {
		t.Run(name, func(t *testing.T) { diffTimed(t, DefaultConfig(), src) })
	}
	for _, limit := range []uint64{1, 4095, 4096, 5003, 10007} {
		t.Run(fmt.Sprintf("limit-%d", limit), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxInstrs = limit
			diffTimed(t, cfg, ckptProgBranchy(2000))
		})
	}
	t.Run("gshare", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Predictor = "gshare"
		diffTimed(t, cfg, ckptProgBranchy(2000))
	})
}

// FuzzTimedVsReference is the differential fuzz target of the timed loop:
// the input is a generator seed, so every input is a valid guest program,
// and the property is TestTimedLoopMatchesReference's.
func FuzzTimedVsReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1337, 0xdead, 1 << 40, 0x77ace} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffTimed(t, DefaultConfig(), workgen.RandomSource(seed))
	})
}

// TestCrashResumeAcrossLoops crashes a checkpointing node on one loop and
// resumes it on the other: a snapshot taken by either restores into
// either, and both end where an uninterrupted reference run ends.
func TestCrashResumeAcrossLoops(t *testing.T) {
	for _, every := range []uint64{1, 1000, 4095, 10007} {
		span := every
		if every == 1 {
			span = 24
		}
		for name, loops := range map[string][3]timedLoop{
			"crash-predecoded-resume-reference": {refLoop, sim.RunTimed, refLoop},
			"crash-reference-resume-predecoded": {refLoop, refLoop, sim.RunTimed},
		} {
			run := ckptRun{long: ckptProgBranchy(int(4*span/15) + 1), every: every, loops: loops}
			t.Run(fmt.Sprintf("every=%d/%s", every, name), func(t *testing.T) {
				crashResume(t, run, 5*span/2)
			})
		}
	}
}

// TestCancelledTimedRunStopsWithinABatch closes a cycle-exact run's kill
// switch at instruction k, for k on and off a batch boundary, and demands
// the run return sim.ErrStopped having retired fewer than 4 096 more.
func TestCancelledTimedRunStopsWithinABatch(t *testing.T) {
	exe := build(t, ckptProgBranchy(100_000))
	for _, k := range []int{1, 4095, 4096, 10_000, 12_289} {
		stop := make(chan struct{})
		cfg := DefaultConfig()
		cfg.Stop = stop
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{onCharge: func(n int) {
			if n == k {
				close(stop)
			}
		}}
		_, err = execOn(p, sim.RunTimed, rec, exe, io.Discard)
		if !errors.Is(err, sim.ErrStopped) {
			t.Fatalf("k=%d: run returned %v, want sim.ErrStopped", k, err)
		}
		if n := len(rec.events); n < k || n-k >= 4096 {
			t.Errorf("k=%d: stopped after %d instructions, want fewer than 4096 past the kill", k, n)
		}
	}
}
