package rtlsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
	"firemarshal/internal/workgen"
)

// timedLoop drives a machine to halt, charging every retired instruction.
// sim.RunTimed is the predecoded loop (no hooks, trace writer or tamper
// function is installed on these machines); refLoop is the reference.
type timedLoop func(m *sim.Machine, tm sim.TimingModel) (uint64, error)

// refLoop retires through RunBatch/StepInto alone: the loop every timed run
// took before the predecoded loop learned to charge, and the one hooks,
// tracing and fault injection still select.
func refLoop(m *sim.Machine, tm sim.TimingModel) (uint64, error) {
	start := m.Instret
	for !m.Halted {
		if _, err := m.RunBatch(4096, tm.ChargeEvent); err != nil {
			return m.Instret - start, err
		}
	}
	return m.Instret - start, nil
}

// retired is what the recorder keeps of one charged Event: every field a
// timing model may read.
type retired struct {
	PC, MemAddr, Extra   uint64
	Op                   isa.Op
	Taken, MMIO, Syscall bool
}

// charged is one full Event the model was charged, at the retired count
// the machine had published with it.
type charged struct {
	instret uint64
	ev      retired
}

// rec is one entry of a stream: a sim.TimedRec whose N, for a fetch, is
// every same-line fetch since the previous fetch record, however many
// replays lay between them.
type rec struct {
	addr, n uint64
	kind    sim.RecKind
}

// stream is a run's timing events the way the log records them: each
// fetch from a new line (carrying the same-line fetches before it), each
// branch (pc, taken) and each RAM access (address). A reference leg builds
// it from full Events; the predecoded leg from its replayed logs and the
// Events of its slow steps.
type stream struct {
	mask uint64
	line uint64
	hits uint64
	recs []rec
}

func newStream(cfg Config) stream {
	return stream{mask: newLog(cfg).LineMask, line: ^uint64(0)}
}

// event adds a full Event's records.
func (s *stream) event(ev *sim.Event) {
	if l := ev.PC &^ s.mask; l != s.line {
		s.line = l
		s.recs = append(s.recs, rec{addr: ev.PC, n: s.hits, kind: sim.RecFetch})
		s.hits = 0
	} else {
		s.hits++
	}
	switch op := ev.Instr.Op; {
	case op.IsBranch():
		var taken uint64
		if ev.Taken {
			taken = 1
		}
		s.recs = append(s.recs, rec{addr: ev.PC, n: taken, kind: sim.RecBranch})
	case (op.IsLoad() || op.IsStore()) && !ev.MMIO:
		s.recs = append(s.recs, rec{addr: ev.MemAddr, kind: sim.RecMem})
	}
}

// logged adds a log's records and returns how many instructions it holds.
func (s *stream) logged(l *sim.TimedLog) (instrs uint64) {
	for _, r := range l.Recs[:l.N] {
		e := rec{addr: r.Addr, n: uint64(r.N), kind: r.Kind}
		if r.Kind == sim.RecFetch {
			instrs += 1 + e.n
			e.n += s.hits
			s.hits, s.line = 0, r.Addr&^s.mask
		}
		s.recs = append(s.recs, e)
	}
	s.hits += l.Hits
	return instrs + l.Hits
}

// snap is the timing model's Save bytes at one snapshot, with the clock
// the machine published there.
type snap struct {
	instret, now uint64
	state        []byte
}

// recorder stands between a loop and the platform's model: it passes every
// call on, keeps each charged Event and the stream, checks at every replay
// that the log is still the array the platform allocated, and, with every
// set, saves the model at each snapshot boundary.
type recorder struct {
	model   *model
	m       *sim.Machine
	every   uint64
	slow    []charged
	stream  stream
	logged  uint64 // instructions that reached the model through the log
	replays int
	maxRecs int                 // most records one replay found
	recs    *[8192]sim.TimedRec // the log's records, which must never move
	snaps   []snap
	// onReplay, when set, is called after each replay.
	onReplay func(m *sim.Machine)
}

func (r *recorder) ChargeEvent(ev *sim.Event) uint64 {
	r.slow = append(r.slow, charged{r.m.Instret, retired{
		PC: ev.PC, MemAddr: ev.MemAddr, Extra: ev.Extra, Op: ev.Instr.Op,
		Taken: ev.Taken, MMIO: ev.MMIO, Syscall: ev.Syscall,
	}})
	r.stream.event(ev)
	return r.model.ChargeEvent(ev)
}

func (r *recorder) Log() *sim.TimedLog { return r.model.Log() }

func (r *recorder) Replay() uint64 {
	l := r.model.log
	if l.Recs != r.recs {
		panic("the log's records moved")
	}
	r.replays++
	r.maxRecs = max(r.maxRecs, l.N)
	r.logged += r.stream.logged(l)
	c := r.model.Replay()
	if r.onReplay != nil {
		r.onReplay(r.m)
	}
	return c
}

// execOn is Exec with the loop chosen by the caller and rec around the
// timing model.
func execOn(p *Platform, loop timedLoop, rec *recorder, exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	rec.model, rec.stream, rec.recs = &p.model, newStream(p.model.cfg), p.model.log.Recs
	res, err := p.Run(exe, console, args, p.injectFault, func(m *sim.Machine) (uint64, error) {
		rec.m = m
		if rec.every != 0 {
			m.CkptEvery, m.CkptFn = rec.every, func(m *sim.Machine) error {
				extra, err := p.saveExtra()
				rec.snaps = append(rec.snaps, snap{m.Instret, m.Now, extra["rtlsim"]})
				return err
			}
		}
		return loop(m, rec)
	})
	if err == nil {
		p.model.stats.Instrs += res.Instrs
		p.model.stats.Cycles += res.Cycles
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

// snapEvery is where diffTimed's legs save the timing model: off the
// 4096-instruction batch by one, so snapshots fall inside batches.
const snapEvery = 4097

func runLeg(t *testing.T, cfg Config, exe *isa.Executable, loop timedLoop) leg {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := leg{rec: recorder{every: snapEvery}}
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
// result or error, clock, all ten Stats fields, console, timing-model
// Save bytes and clock at every snapshot, and timing stream — the log's
// records against the reference loop's full Events — with every slow
// step's Event equal to the reference's at that instruction; and that Exec
// itself agrees with the predecoded leg.
func diffTimed(t *testing.T, cfg Config, src string) {
	t.Helper()
	diffTimedExe(t, cfg, build(t, src))
}

func diffTimedExe(t *testing.T, cfg Config, exe *isa.Executable) (ref, fast leg) {
	t.Helper()
	ref = runLeg(t, cfg, exe, refLoop)
	fast = runLeg(t, cfg, exe, sim.RunTimed)
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
	if n, m := len(ref.rec.snaps), len(fast.rec.snaps); n != m {
		t.Errorf("%d snapshots on the reference loop, %d on the predecoded one", n, m)
	}
	for i := range min(len(ref.rec.snaps), len(fast.rec.snaps)) {
		r, f := ref.rec.snaps[i], fast.rec.snaps[i]
		if r.instret != f.instret || r.now != f.now || !bytes.Equal(r.state, f.state) {
			t.Errorf("snapshot %d: reference at instret %d clock %d, predecoded at %d clock %d; state equal: %v",
				i, r.instret, r.now, f.instret, f.now, bytes.Equal(r.state, f.state))
			break
		}
	}
	rs, fs := ref.rec.stream.recs, fast.rec.stream.recs
	if len(rs) != len(fs) {
		t.Errorf("%d timing records from the reference loop, %d from the predecoded one", len(rs), len(fs))
	}
	for i := range min(len(rs), len(fs)) {
		if rs[i] != fs[i] {
			t.Errorf("timing record %d: reference %+v, predecoded %+v", i, rs[i], fs[i])
			break
		}
	}
	byInstret := map[uint64]retired{}
	for _, c := range ref.rec.slow {
		byInstret[c.instret] = c.ev
	}
	for _, c := range fast.rec.slow {
		if want, ok := byInstret[c.instret]; !ok || want != c.ev {
			t.Errorf("slow step at instret %d charged %+v, reference %+v", c.instret, c.ev, want)
			break
		}
	}
	if ref.rec.replays != 0 || fast.rec.logged == 0 {
		t.Errorf("%d reference replays and %d logged predecoded instructions: want none and some", ref.rec.replays, fast.rec.logged)
	}
	if n, m := uint64(len(ref.rec.slow)), uint64(len(fast.rec.slow))+fast.rec.logged; n != m {
		t.Errorf("reference charged %d instructions, predecoded %d slow steps + %d logged", n, len(fast.rec.slow), fast.rec.logged)
	}
	exec := runLeg(t, cfg, exe, nil)
	if exec.res != fast.res || exec.err != fast.err || exec.cycles != fast.cycles || exec.stats != fast.stats || exec.console != fast.console {
		t.Errorf("Exec %+v %q (clock %d, %+v) differs from the predecoded leg", exec.res, exec.err, exec.cycles, exec.stats)
	}
	return ref, fast
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

// lineStartProg puts an rdcycle, an MMIO load, an MMIO store and an ecall
// first on an I-cache line, each reached once by falling through from the
// line before and once by a taken branch or a jump, so every slow step
// follows a line change with same-line fetches pending before it.
func lineStartProg() string {
	// Each call is one 64-byte line: its instructions padded to 16.
	line := func(instrs ...string) string {
		for len(instrs) < 16 {
			instrs = append(instrs[:len(instrs):len(instrs)], "addi t2, t2, 1")
		}
		return "    " + strings.Join(instrs, "\n    ") + "\n"
	}
	return `
_start:
    li s0, 300
    li s1, 0x54000000
    li s3, 0x100000
    j l0
    .align 6
l0:
` + line("addi s0, s0, -1", "li a7, 0x103") +
		line("rdcycle t0", "add s2, s2, t0") +
		line("lw t1, 0(s1)", "add s2, s2, t1", "sd s2, 0(s3)") +
		line("ecall", "add s2, s2, a0") +
		line("sb t2, 4(s1)", "ld t3, 0(s3)", "add s2, s2, t3") +
		line("beqz s0, l5", "j l6") + `l5:
` + line("andi a0, s2, 127", "li a7, 93", "ecall") + `l6:
` + line("rdcycle t0", "add s2, s2, t0", "j l7") + `l7:
` + line("lw t1, 4(s1)", "add s2, s2, t1", "bnez s0, l8") + `l8:
` + line("ecall", "sub s2, s2, a0", "j l9") + `l9:
` + line("sw t2, 4(s1)", "j l0")
}

// branchRingProg is a ring of taken conditional branches, each the only
// instruction executed on its I-cache line: every instruction logs a fetch
// and a branch record, so each batch fills the log to its capacity.
func branchRingProg(lines int) string {
	var b strings.Builder
	b.WriteString("_start:\n")
	for i := range lines {
		op := [...]string{"beq", "bge", "bgeu"}[i%3]
		fmt.Fprintf(&b, "    .align 6\nr%d:\n    %s x0, x0, r%d\n", i, op, (i+1)%lines)
	}
	return b.String()
}

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
		"line-start":  lineStartProg(),
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

// TestTimedLogFillsWithoutGrowing runs a program that logs two records per
// instruction for several batches: the log must reach exactly its capacity
// (two records per instruction of a 4096-instruction batch), stay the
// array the platform allocated — the recorder panics if it moves — and
// still replay to the reference loop's cycles.
func TestTimedLogFillsWithoutGrowing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 3*4096 + 7
	_, fast := diffTimedExe(t, cfg, build(t, branchRingProg(48)))
	if fast.rec.maxRecs != len(fast.rec.recs) {
		t.Errorf("a replay found at most %d records in a log of %d, want it full", fast.rec.maxRecs, len(fast.rec.recs))
	}
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
	for _, every := range []uint64{1, 1000, 4095, 4096, 4097, 10007} {
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

// cycleBranchyProg is ckptProgBranchy with an rdcycle in every iteration:
// a slow step, and so a replay, every 16 instructions.
func cycleBranchyProg(iters int) string {
	return strings.Replace(ckptProgBranchy(iters), "b3: addi s0, s0, -1", "b3: rdcycle t2\n    addi s0, s0, -1", 1)
}

// TestCancelledTimedRunStopsWithinABatch closes a cycle-exact run's kill
// switch at the first replay that has published k or more instructions,
// for k on and off a batch boundary, and demands the run return
// sim.ErrStopped having retired fewer than 4 096 more. On the branchy
// program the only replays are batch ends; with an rdcycle per iteration
// the kill lands inside a batch, which must still run out first.
func TestCancelledTimedRunStopsWithinABatch(t *testing.T) {
	for name, src := range map[string]string{
		"branchy":       ckptProgBranchy(100_000),
		"cycle-branchy": cycleBranchyProg(100_000),
	} {
		exe := build(t, src)
		for _, k := range []uint64{1, 4095, 4096, 10_000, 12_289} {
			stop := make(chan struct{})
			cfg := DefaultConfig()
			cfg.Stop = stop
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var killed uint64
			rec := &recorder{onReplay: func(m *sim.Machine) {
				if killed == 0 && m.Instret >= k {
					killed = m.Instret
					close(stop)
				}
			}}
			_, err = execOn(p, sim.RunTimed, rec, exe, io.Discard)
			if !errors.Is(err, sim.ErrStopped) {
				t.Fatalf("%s k=%d: run returned %v, want sim.ErrStopped", name, k, err)
			}
			if killed-k >= 4096 {
				t.Errorf("%s k=%d: first replay at or past k published %d instructions", name, k, killed)
			}
			if n := rec.m.Instret; n-killed >= 4096 {
				t.Errorf("%s k=%d: stopped after %d instructions, killed at %d: want fewer than 4096 past the kill", name, k, n, killed)
			}
		}
	}
}
