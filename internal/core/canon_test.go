package core

import (
	"context"
	"reflect"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ld"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

// loadTiny links the tiny workload preset and loads it with one worker.
func loadTiny(tb testing.TB) *BinaryContext {
	tb.Helper()
	objs, err := cc.Compile(workload.Generate(workload.Tiny()), cc.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		tb.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Jobs = 1
	ctx, err := NewContext(context.Background(), res.File, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return ctx
}

// TestFuncShapeGolden pins the profile-v2 block shapes of two tiny-preset
// functions (one with a jump table) to values recorded before the block
// hash moved onto the shared canonical instruction walk. Shapes are
// embedded in profiles on disk, so any change here breaks stale matching
// against every v2 profile already written.
func TestFuncShapeGolden(t *testing.T) {
	want := map[string][]profile.BlockShape{
		"dup0_0": {
			{Off: 0x0, Hash: 0xf11b4b8880f1645e, Succs: []int{1, 2, 3, 4}},
			{Off: 0x142, Hash: 0x8d1590d2fc073462, Succs: []int{5}},
			{Off: 0x148, Hash: 0x8d1590d2fc073462, Succs: []int{5}},
			{Off: 0x14e, Hash: 0x8d1590d2fc073462, Succs: []int{5}},
			{Off: 0x154, Hash: 0x8548407b5084f87, Succs: []int{5}},
			{Off: 0x158, Hash: 0x8768007b5252f21},
		},
		"f0_7": {
			{Off: 0x0, Hash: 0x3284ecdf2bfd380b, Succs: []int{2, 1}},
			{Off: 0x36, Hash: 0x7483dc5cb564fc41, Succs: []int{3}},
			{Off: 0x46, Hash: 0xfb806994217d0f45, Succs: []int{3}},
			{Off: 0xea, Hash: 0x872ce19dfcf8f5f4, Succs: []int{5, 4}},
			{Off: 0x113, Hash: 0x7483dc5cb564fc41, Succs: []int{6}},
			{Off: 0x123, Hash: 0xd5ae1162acd937e6, Succs: []int{6}},
			{Off: 0x1ff, Hash: 0x7199216e7321f566},
		},
	}
	ctx := loadTiny(t)
	for name, blocks := range want {
		fn := ctx.ByName[name]
		if fn == nil || !fn.Simple {
			t.Fatalf("tiny preset lost simple function %s", name)
		}
		got, _ := computeFuncShape(fn, nil)
		if !reflect.DeepEqual(got.Blocks, blocks) {
			t.Errorf("%s shape changed:\n got %+v\nwant %+v", name, got.Blocks, blocks)
		}
	}
}

// BenchmarkFuncShape measures the opcode-level canonical walk: the block
// shapes of every simple tiny-preset function through one scratch buffer.
func BenchmarkFuncShape(b *testing.B) {
	simple := loadTiny(b).SimpleFuncs()
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		for _, fn := range simple {
			_, buf = computeFuncShape(fn, buf)
		}
	}
}

// TestICFHashAllocs is the exact allocation gate for ICF hashing: once a
// worker's scratch buffer has grown to the largest body, hashing every
// function allocates nothing.
func TestICFHashAllocs(t *testing.T) {
	simple := loadTiny(t).SimpleFuncs()
	var buf []byte
	for _, fn := range simple {
		_, buf = HashCanonical(buf, fn)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, fn := range simple {
			_, buf = HashCanonical(buf, fn)
		}
	})
	if allocs != 0 {
		t.Fatalf("hashing %d warm functions allocated %.1f times, want 0", len(simple), allocs)
	}
}

// BenchmarkICFHash measures one ICF hash round's work: the full canonical
// encoding and hash of every simple tiny-preset function through one
// worker buffer.
func BenchmarkICFHash(b *testing.B) {
	simple := loadTiny(b).SimpleFuncs()
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		for _, fn := range simple {
			_, buf = HashCanonical(buf, fn)
		}
	}
}
