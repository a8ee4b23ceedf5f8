package cfi

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// standardPrologue builds the CFI program for:
//
//	0: push %rbp        -> def_cfa_offset 16; offset rbp, -16
//	1: mov %rsp,%rbp    -> def_cfa_register rbp
//	4: push %rbx        -> offset rbx, -24
//	5: sub $0x10,%rsp
func standardPrologue() FDE {
	return FDE{
		Start: 0x400000,
		Len:   0x40,
		Insts: []PCInst{
			{PC: 1, Inst: Inst{Kind: OpDefCfaOffset, Off: 16}},
			{PC: 1, Inst: Inst{Kind: OpOffset, Reg: 6, Off: -16}},
			{PC: 4, Inst: Inst{Kind: OpDefCfaRegister, Reg: 6}},
			{PC: 5, Inst: Inst{Kind: OpOffset, Reg: 3, Off: -24}},
		},
	}
}

// saved reports whether st saves register r at exactly off.
func saved(st State, r uint8, off int32) bool {
	got, ok := st.Saved(r)
	return ok && got == off
}

func TestEvaluate(t *testing.T) {
	f := standardPrologue()
	st, err := f.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}
	if st != InitialState() {
		t.Errorf("entry state wrong: %+v", st)
	}
	st, err = f.Evaluate(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.CfaReg != 4 || st.CfaOff != 16 || !saved(st, 6, -16) {
		t.Errorf("state after push rbp wrong: %+v", st)
	}
	st, err = f.Evaluate(0x20)
	if err != nil {
		t.Fatal(err)
	}
	if st.CfaReg != 6 || st.CfaOff != 16 || !saved(st, 3, -24) || !saved(st, 6, -16) {
		t.Errorf("steady state wrong: %+v", st)
	}
}

func TestRememberRestore(t *testing.T) {
	f := FDE{
		Start: 0, Len: 0x100,
		Insts: []PCInst{
			{PC: 1, Inst: Inst{Kind: OpDefCfaOffset, Off: 16}},
			{PC: 8, Inst: Inst{Kind: OpRememberState}},
			{PC: 8, Inst: Inst{Kind: OpOffset, Reg: 3, Off: -24}},
			{PC: 8, Inst: Inst{Kind: OpDefCfaOffset, Off: 24}},
			{PC: 0x20, Inst: Inst{Kind: OpRestoreState}},
		},
	}
	st, _ := f.Evaluate(0x10)
	if st.CfaOff != 24 || !saved(st, 3, -24) {
		t.Errorf("inside region: %+v", st)
	}
	st, _ = f.Evaluate(0x30)
	if want := (State{CfaReg: 4, CfaOff: 16}); st != want {
		t.Errorf("after restore: %+v", st)
	}
}

func TestRestoreStateUnderflow(t *testing.T) {
	f := FDE{Insts: []PCInst{{PC: 0, Inst: Inst{Kind: OpRestoreState}}}}
	if _, err := f.Evaluate(1); err == nil {
		t.Fatal("expected underflow error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	fdes := []FDE{standardPrologue(), {Start: 0x400100, Len: 8, LSDA: 0x500000}}
	data := EncodeFrames(fdes)
	got, err := DecodeFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d FDEs", len(got))
	}
	if got[0].Start != 0x400000 || len(got[0].Insts) != 4 || got[1].LSDA != 0x500000 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got[0].Insts[3].Inst.String() != "OpOffset Reg3 -24" {
		t.Errorf("inst formatting: %q", got[0].Insts[3].Inst.String())
	}
}

func TestFindFDE(t *testing.T) {
	fdes := []FDE{
		{Start: 0x1000, Len: 0x100},
		{Start: 0x2000, Len: 0x80},
		{Start: 0x3000, Len: 0x10},
	}
	data := EncodeFrames(fdes)
	sorted, _ := DecodeFrames(data)
	for _, tc := range []struct {
		addr uint64
		want uint64
		ok   bool
	}{
		{0x1000, 0x1000, true},
		{0x10FF, 0x1000, true},
		{0x1100, 0, false},
		{0x2040, 0x2000, true},
		{0x300F, 0x3000, true},
		{0x3010, 0, false},
		{0xFFF, 0, false},
	} {
		f, ok := FindFDE(sorted, tc.addr)
		if ok != tc.ok {
			t.Errorf("FindFDE(%#x): ok=%v want %v", tc.addr, ok, tc.ok)
			continue
		}
		if ok && f.Start != tc.want {
			t.Errorf("FindFDE(%#x) = %#x, want %#x", tc.addr, f.Start, tc.want)
		}
	}
}

func TestLSDARoundTrip(t *testing.T) {
	l := &LSDA{CallSites: []CallSite{
		{Start: 0x10, Len: 5, LandingPad: 0x400500, Action: 1},
		{Start: 0x20, Len: 5, LandingPad: 0, Action: 0},
	}}
	buf := []byte{0xEE} // existing content: offsets must be respected
	buf, off := EncodeLSDA(buf, l)
	got, err := DecodeLSDA(buf, off)
	if err != nil {
		t.Fatal(err)
	}
	lp, action, ok := got.Lookup(0x12)
	if !ok || lp != 0x400500 || action != 1 {
		t.Errorf("Lookup(0x12) = %#x, %d, %v", lp, action, ok)
	}
	if _, _, ok := got.Lookup(0x22); ok {
		t.Errorf("zero landing pad must report no handler")
	}
	if _, _, ok := got.Lookup(0x100); ok {
		t.Errorf("outside ranges must report no handler")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeFrames([]byte{1, 2}); err == nil {
		t.Error("short frame section accepted")
	}
	if _, err := DecodeFrames([]byte{5, 0, 0, 0, 1}); err == nil {
		t.Error("truncated FDE accepted")
	}
	if _, err := DecodeLSDA([]byte{1}, 0); err == nil {
		t.Error("truncated LSDA accepted")
	}
	if _, err := DecodeLSDA([]byte{255, 0, 0, 0}, 0); err == nil {
		t.Error("oversized LSDA accepted")
	}
}

func TestDecodeRejectsHighRegister(t *testing.T) {
	for _, in := range []Inst{
		{Kind: OpDefCfa, Reg: NumRegs, Off: 16},
		{Kind: OpDefCfaRegister, Reg: 200},
		{Kind: OpOffset, Reg: 200, Off: -16},
		{Kind: OpRestore, Reg: 255},
	} {
		f := FDE{Start: 0x1000, Len: 8, Insts: []PCInst{{PC: 1, Inst: in}}}
		if _, err := DecodeFrames(EncodeFrames([]FDE{f})); err == nil {
			t.Errorf("%v accepted", in)
		}
	}
	// The highest valid register and rules whose Reg field is unused
	// still decode.
	f := FDE{Start: 0x1000, Len: 8, Insts: []PCInst{
		{PC: 1, Inst: Inst{Kind: OpOffset, Reg: NumRegs - 1, Off: -16}},
		{PC: 2, Inst: Inst{Kind: OpDefCfaOffset, Reg: 200, Off: 24}},
	}}
	if _, err := DecodeFrames(EncodeFrames([]FDE{f})); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

// randState draws a state with a random saved set, random (often
// colliding) offsets and a random CFA.
func randState(rng *rand.Rand) State {
	off := func() int32 {
		if rng.IntN(4) == 0 {
			return int32(rng.Uint32())
		}
		return []int32{-24, -16, -8, 0, 8}[rng.IntN(5)]
	}
	st := State{CfaReg: uint8(rng.IntN(NumRegs)), CfaOff: off()}
	for r := uint8(0); r < NumRegs; r++ {
		if rng.IntN(2) == 0 {
			st.Save(r, off())
		}
	}
	return st
}

// replay applies a diff to from and returns the resulting state.
func replay(t *testing.T, from State, diff []Inst) State {
	t.Helper()
	var stack []State
	for _, in := range diff {
		if err := from.Apply(in, &stack); err != nil {
			t.Fatalf("replaying %v: %v", in, err)
		}
	}
	return from
}

func TestStateDiffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 5000; i++ {
		a, b := randState(rng), randState(rng)
		if i%2 == 0 {
			// Near pairs: b is a with a few registers or the CFA changed.
			b = a
			for r := uint8(0); r < NumRegs; r++ {
				switch rng.IntN(6) {
				case 0:
					b.Restore(r)
				case 1:
					b.Save(r, int32(rng.IntN(64))-32)
				}
			}
			if rng.IntN(2) == 0 {
				b.CfaOff += 8
			}
		}
		diff := StateDiff(&a, &b)
		if got := replay(t, a, diff); got != b {
			t.Fatalf("pair %d: diff %v turns %+v into %+v, want %+v", i, diff, a, got, b)
		}
		if (len(diff) == 0) != (a == b) {
			t.Fatalf("pair %d: diff %v between states equal=%v", i, diff, a == b)
		}
		// Order: an optional def_cfa, then restores, then offsets, each
		// group by ascending register.
		rank := map[OpKind]int{OpDefCfa: 0, OpRestore: 1, OpOffset: 2}
		for j := 1; j < len(diff); j++ {
			p, c := diff[j-1], diff[j]
			if rank[p.Kind] > rank[c.Kind] || (p.Kind == c.Kind && p.Reg >= c.Reg) {
				t.Fatalf("pair %d: diff out of order: %v", i, diff)
			}
		}
	}
}

func FuzzDecodeFrames(f *testing.F) {
	rr := FDE{Start: 0x400100, Len: 0x40, LSDA: 0x500000, Insts: []PCInst{
		{PC: 1, Inst: Inst{Kind: OpDefCfa, Reg: 6, Off: 16}},
		{PC: 8, Inst: Inst{Kind: OpRememberState}},
		{PC: 8, Inst: Inst{Kind: OpRestore, Reg: 6}},
		{PC: 0x20, Inst: Inst{Kind: OpRestoreState}},
	}}
	f.Add(EncodeFrames([]FDE{standardPrologue(), rr}))
	f.Add(EncodeFrames(nil))
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fdes, err := DecodeFrames(data)
		if err != nil {
			return // rejected inputs just must not panic
		}
		enc := EncodeFrames(fdes)
		got, err := DecodeFrames(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodeFrames(got), enc) {
			t.Fatal("encode is not a fixpoint after one round trip")
		}
		init := InitialState()
		for i := range fdes {
			fde := &fdes[i]
			pcs := []uint32{fde.Len}
			for _, pi := range fde.Insts {
				pcs = append(pcs, pi.PC)
			}
			for _, pc := range pcs {
				st, err := fde.Evaluate(pc)
				if err != nil {
					continue
				}
				if got := replay(t, init, StateDiff(&init, &st)); got != st {
					t.Fatalf("FDE %d pc %#x: diff replay gives %+v, want %+v", i, pc, got, st)
				}
			}
		}
	})
}
