package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
)

// buildBinary links a little two-function program with jump table and
// exception metadata for discovery tests.
func buildBinary(t *testing.T) *BinaryContext {
	t.Helper()
	leaf := ir.NewFunc("leaf", "l.mir", 4)
	leaf.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 1},
		{Kind: ir.OpShlImm, Dst: isa.RAX, Imm: 2},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 3},
	}
	leaf.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}

	f := ir.NewFunc("switchy", "s.mir", 10)
	f.SavedRegs = []isa.Reg{isa.RBX}
	c0 := f.AddBlock()
	c1 := f.AddBlock()
	ret := f.AddBlock()
	f.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.RDI},
		{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: 1},
		{Kind: ir.OpCall, Callee: "leaf", SpillReg: isa.NoReg, LandingPad: -1},
	}
	f.Blocks[0].Term = ir.Term{Kind: ir.TermSwitch, IndexReg: isa.RCX,
		Targets: []int{c0.Index, c1.Index}, PIC: true}
	c0.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 10}}
	c0.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	c1.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 20}}
	c1.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	ret.Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "m.mir", 1)
	start.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 3},
		{Kind: ir.OpCall, Callee: "switchy", SpillReg: isa.NoReg, LandingPad: -1},
	}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}

	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, f, leaf}}}}
	p.Finalize()
	opts := cc.DefaultOptions()
	opts.TinyInlineOps = 1 // keep leaf out-of-line
	objs, err := cc.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(context.Background(), res.File, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestDiscoveryAndCFG(t *testing.T) {
	ctx := buildBinary(t)
	fn := ctx.ByName["switchy"]
	if fn == nil || !fn.Simple {
		t.Fatalf("switchy not simple: %+v", fn)
	}
	if len(fn.JTs) != 1 || !fn.JTs[0].PIC || len(fn.JTs[0].Targets) != 2 {
		t.Fatalf("PIC jump table not recovered: %+v", fn.JTs)
	}
	// The switch block must have two successors.
	var swBlock *BasicBlock
	for _, b := range fn.Blocks {
		if last := b.LastInst(); last != nil && last.JT != nil {
			swBlock = b
		}
	}
	if swBlock == nil || len(swBlock.Succs) != 2 {
		t.Fatalf("switch successors wrong: %+v", swBlock)
	}
	// CFI must be attached (framed function).
	if fn.Blocks[0].CFIIn < 0 {
		t.Error("entry CFI state missing")
	}
	// Call target symbolized.
	found := false
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			if b.Insts[i].TargetSym == "leaf" {
				found = true
			}
		}
	}
	if !found {
		t.Error("call to leaf not symbolized")
	}
}

func TestPrintCFGFormat(t *testing.T) {
	ctx := buildBinary(t)
	var buf bytes.Buffer
	ctx.PrintCFG(&buf, ctx.ByName["switchy"])
	out := buf.String()
	for _, want := range []string{
		`Binary Function "switchy"`,
		"IsSimple    : 1",
		"BB Count",
		"Exec Count",
		"Successors:",
		"Entry Point",
		"s.mir:10", // source annotation
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CFG dump missing %q:\n%s", want, out)
		}
	}
}

func TestStateInterning(t *testing.T) {
	fn := &BinaryFunction{}
	s1 := InitialStateForTest()
	a := fn.InternState(s1)
	b := fn.InternState(s1)
	if a != b {
		t.Fatal("identical states must intern to one index")
	}
	s2 := InitialStateForTest()
	s2.Save(3, -24)
	if fn.InternState(s2) == a {
		t.Fatal("distinct states must not collide")
	}
	// The key must be insensitive to the order registers were saved in:
	// a multi-register state built in two orders yields one index.
	s3 := InitialStateForTest()
	s3.Save(3, -24)
	s3.Save(6, -16)
	s3.Save(12, -8)
	s4 := InitialStateForTest()
	s4.Save(12, -8)
	s4.Save(6, -16)
	s4.Save(3, -24)
	if fn.InternState(s3) != fn.InternState(s4) {
		t.Fatal("saved-register order must not affect the interned key")
	}
	// Same registers, one differing offset: distinct.
	s5 := InitialStateForTest()
	s5.Save(3, -24)
	s5.Save(6, -16)
	s5.Save(12, -80)
	if fn.InternState(s5) == fn.InternState(s3) {
		t.Fatal("states differing only in a saved offset must not collide")
	}
	// Negative CFA offsets must round-trip through the key.
	s6 := InitialStateForTest()
	s6.CfaOff = -8
	if fn.InternState(s6) == fn.InternState(InitialStateForTest()) {
		t.Fatal("states differing in CFA offset must not collide")
	}
	// Restore clears the offset slot, so save-then-restore is the
	// initial state again: == and the interned key depend on it.
	s7 := InitialStateForTest()
	s7.Save(3, -24)
	s7.Restore(3)
	if s7 != InitialStateForTest() || fn.InternState(s7) != a {
		t.Fatal("save then restore must equal and intern as the initial state")
	}
}

func TestRewriteRequiresRelocs(t *testing.T) {
	ctx := buildBinary(t)
	ctx.HasRelocs = false
	if _, err := ctx.Rewrite(context.Background()); err == nil {
		t.Fatal("rewrite without relocations must fail")
	}
}
