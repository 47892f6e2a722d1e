package rtlsim

import (
	"bytes"
	"io"
	"os"
	"testing"

	"firemarshal/internal/asm"
)

// fixtureProg is the program behind testdata/timing_state_parent.gob:
// LCG-steered branches around a load and a store into a 32 KiB table, so
// predictor tables, both caches and the statistics are all populated.
const fixtureProg = `
_start:
    li s0, 100000
    li s1, 12345
    li s2, 1103515245
    li s3, 0
    li s4, 0x100000
    li s5, 0x7ff8
loop:
    mul  s1, s1, s2
    addi s1, s1, 1237
    srli t0, s1, 16
    and  t2, t0, s5
    add  t2, t2, s4
    ld   t3, 0(t2)
    add  t3, t3, s3
    sd   t3, 0(t2)
    andi t1, t0, 1
    beqz t1, b1
    addi s3, s3, 1
b1: andi t1, t0, 2
    beqz t1, b2
    addi s3, s3, 3
b2: andi t1, t0, 12
    bnez t1, b3
    xori s3, s3, 5
b3: addi s0, s0, -1
    bnez s0, loop
    mv a0, s3
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`

// fixtureInstrs is where the fixture's writer stopped (its MaxInstrs).
const fixtureInstrs = 30011

// TestParentCheckpointRestores pins the serialised timing-model layout.
// testdata/timing_state_parent.gob is the "rtlsim" checkpoint blob written
// by the commit before the hot-loop rewrite (per-set cache slices, TAGE
// with the eager ageing sweep) after fixtureInstrs instructions of
// fixtureProg on the default platform. Today's code must (a) reach the
// byte-identical blob at the same point, (b) restore the old blob into a
// fresh platform, and (c) save it back unchanged.
func TestParentCheckpointRestores(t *testing.T) {
	want, err := os.ReadFile("testdata/timing_state_parent.gob")
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.MaxInstrs = fixtureInstrs
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := asm.Assemble(fixtureProg, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(exe, io.Discard); err == nil {
		t.Fatal("exec finished; the fixture point is an instruction-limit trap")
	}
	extra, err := p.saveExtra()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(extra["rtlsim"], want) {
		t.Errorf("timing state after %d instructions differs from the parent commit's (%d bytes, want %d)",
			fixtureInstrs, len(extra["rtlsim"]), len(want))
	}

	fresh, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.restoreExtra(map[string][]byte{"rtlsim": want}); err != nil {
		t.Fatalf("parent-written timing state does not restore: %v", err)
	}
	if got, want := fresh.Stats(), p.Stats(); got != want {
		t.Errorf("restored stats %+v, want %+v", got, want)
	}
	again, err := fresh.saveExtra()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again["rtlsim"], want) {
		t.Error("parent-written timing state does not survive a restore/save round trip")
	}
}
