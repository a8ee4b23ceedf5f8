package core

import (
	"gobolt/internal/profile"
	"gobolt/internal/stale"
)

// ComputeShapes captures the block-level shape of every simple function
// for embedding in a v2 profile: per block, its input offset, an
// opcode-sequence hash, and its successor indices. A later gobolt run on
// a *different* build of the program uses these via internal/stale to
// re-anchor profile records whose offsets no longer resolve. Call it on a
// freshly loaded context (before passes restructure the CFGs) so block
// indices and offsets reflect the on-disk layout the profiler saw.
func ComputeShapes(ctx *BinaryContext) map[string]profile.FuncShape {
	out := make(map[string]profile.FuncShape)
	var buf []byte
	for _, fn := range ctx.Funcs {
		if !fn.Simple || fn.FoldedInto != nil || len(fn.Blocks) == 0 {
			continue
		}
		sh, scratch := computeFuncShape(fn, buf)
		buf = scratch
		out[fn.Name] = sh
	}
	return out
}

// computeFuncShape builds one function's shape; buf is reusable scratch.
func computeFuncShape(fn *BinaryFunction, buf []byte) (profile.FuncShape, []byte) {
	sh := profile.FuncShape{Blocks: make([]profile.BlockShape, len(fn.Blocks))}
	for i, b := range fn.Blocks {
		buf = appendCanonBlock(buf[:0], fn, b, canonOpcode)
		bs := profile.BlockShape{Off: b.Addr - fn.Addr, Hash: stale.HashBytes(buf)}
		for _, e := range b.Succs {
			if e.To != nil {
				bs.Succs = append(bs.Succs, e.To.Index)
			}
		}
		sh.Blocks[i] = bs
	}
	return sh, buf
}
