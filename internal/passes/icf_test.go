package passes

import (
	"fmt"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/isa"
)

// icfFunc builds a simple function whose blocks hold the given
// instructions, with Index and Succs left for the caller to wire.
func icfFunc(name string, addr uint64, blocks ...[]core.Inst) *core.BinaryFunction {
	fn := &core.BinaryFunction{Name: name, Addr: addr, Size: 16, Simple: true}
	for i, insts := range blocks {
		fn.Blocks = append(fn.Blocks, &core.BasicBlock{Index: i, Insts: insts})
	}
	return fn
}

func icfInst(op isa.Op) core.Inst { return core.Inst{I: isa.NewInst(op)} }

// icfFolds runs one ICF round (hash pass, then fold) over fns and returns
// the number of functions folded.
func icfFolds(t *testing.T, fns ...*core.BinaryFunction) int64 {
	t.Helper()
	ctx := &core.BinaryContext{Funcs: fns}
	if err := core.ForEachFunction(ICFHash{Round: 1}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := (ICF{Round: 1}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	return ctx.Stats["icf-folded"]
}

// jtClone builds a two-way switch whose jump table lives at jtAddr; swap
// exchanges the table's two targets.
func jtClone(name string, addr, jtAddr uint64, swap bool) *core.BinaryFunction {
	lea := icfInst(isa.LEA)
	lea.I.R1 = isa.RCX
	lea.MemTarget = jtAddr
	jmp := icfInst(isa.JMPr)
	jmp.I.R1 = isa.RCX
	ret1, ret2 := icfInst(isa.MOVri), icfInst(isa.MOVri)
	ret1.I.R1, ret1.I.Imm = isa.RAX, 1
	ret2.I.R1, ret2.I.Imm = isa.RAX, 2
	fn := icfFunc(name, addr,
		[]core.Inst{lea, jmp},
		[]core.Inst{ret1, icfInst(isa.RET)},
		[]core.Inst{ret2, icfInst(isa.RET)})
	b0, b1, b2 := fn.Blocks[0], fn.Blocks[1], fn.Blocks[2]
	if swap {
		b1, b2 = b2, b1
	}
	jt := &core.JumpTable{Addr: jtAddr, EntrySize: 4, PIC: true, Targets: []*core.BasicBlock{b1, b2}}
	fn.JTs = []*core.JumpTable{jt}
	b0.Insts[1].JT = jt
	b0.Succs = []core.Edge{{To: b1}, {To: b2}}
	return fn
}

// TestICFDistinguishesAmbiguousBodies folds only functions that behave
// identically. A symbol name is untrusted ELF bytes, so it must not be
// able to spell out the encoding of further instructions; a symbolic
// immediate and the RIP-relative flag change what an instruction does.
// Clones that differ only in the address of their own jump table still
// fold.
func TestICFDistinguishesAmbiguousBodies(t *testing.T) {
	call := func(sym string) core.Inst {
		in := icfInst(isa.CALL)
		in.TargetSym = sym
		return in
	}
	callImm := func(sym, imm string) core.Inst {
		in := call(sym)
		in.ImmSym = imm
		return in
	}
	cmp := func(sym string) core.Inst {
		in := icfInst(isa.CMPri)
		in.I.R1 = isa.RAX
		in.ImmSym = sym
		return in
	}
	load := func(rip bool) core.Inst {
		in := icfInst(isa.MOVrm)
		in.I.R1 = isa.RAX
		in.I.M.Disp = 0x100
		in.I.M.RIP = rip
		return in
	}
	// One call to a symbol whose name spells "call x; call y" in a
	// delimiter-joined text key.
	spliced := fmt.Sprintf("x;%d/%d/%d/%d/%d;Sy", isa.CALL, isa.NoReg, isa.NoReg, 0, 0)
	distinct := []struct {
		name string
		a, b []core.Inst
	}{
		{"symbol-splice", []core.Inst{call(spliced)}, []core.Inst{call("x"), call("y")}},
		{"imm-sym", []core.Inst{cmp("f")}, []core.Inst{cmp("g")}},
		// Adjacent symbol fields whose bytes agree once joined, if either
		// field lost its length.
		{"symbol-boundary", []core.Inst{callImm("x\x03y", "z")}, []core.Inst{callImm("x", "y\x01z")}},
		{"rip-flag", []core.Inst{load(true)}, []core.Inst{load(false)}},
	}
	for _, tc := range distinct {
		if n := icfFolds(t, icfFunc("a", 0x1000, tc.a), icfFunc("b", 0x2000, tc.b)); n != 0 {
			t.Errorf("%s: folded %d functions with different behaviour", tc.name, n)
		}
	}

	if n := icfFolds(t, jtClone("a", 0x1000, 0x5000, false), jtClone("b", 0x2000, 0x6000, false)); n != 1 {
		t.Errorf("jump-table clones at distinct table addresses: folded %d, want 1", n)
	}
	if n := icfFolds(t, jtClone("a", 0x1000, 0x5000, false), jtClone("b", 0x2000, 0x6000, true)); n != 0 {
		t.Errorf("jump tables with swapped targets: folded %d, want 0", n)
	}
}

// TestICFHashCollisionConfirmed forces three functions into one hash
// bucket: the fold must confirm congruence byte for byte, so the body
// that differs stays unfolded and its twin folds into the right member.
func TestICFHashCollisionConfirmed(t *testing.T) {
	mov := func(imm int64) []core.Inst {
		in := icfInst(isa.MOVri)
		in.I.R1, in.I.Imm = isa.RAX, imm
		return []core.Inst{in, icfInst(isa.RET)}
	}
	a, b, c := icfFunc("a", 0x1000, mov(1)), icfFunc("b", 0x2000, mov(2)), icfFunc("c", 0x3000, mov(2))
	for _, fn := range []*core.BinaryFunction{a, b, c} {
		fn.ICFHash = 42
	}
	ctx := &core.BinaryContext{Funcs: []*core.BinaryFunction{a, b, c}}
	if err := (ICF{Round: 1}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if a.FoldedInto != nil || b.FoldedInto != nil || c.FoldedInto != b {
		t.Fatalf("colliding bucket folded wrongly: a->%v b->%v c->%v", a.FoldedInto, b.FoldedInto, c.FoldedInto)
	}
	if ctx.Stats["icf-folded"] != 1 {
		t.Fatalf("icf-folded = %d, want 1", ctx.Stats["icf-folded"])
	}
}
