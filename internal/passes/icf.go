package passes

import (
	"bytes"
	"fmt"

	"gobolt/internal/core"
)

// ICF folds functions with identical semantics (Table 1, passes 2 and 7).
// Unlike linker ICF, it operates on the *reconstructed CFG*, so it can
// fold functions containing jump tables and functions that were not
// compiled with -ffunction-sections: bodies are compared structurally
// with internal control-flow targets normalized to block indices and
// external references symbolized (paper §4: ~3% size win over the
// linker's pass on HHVM).
//
// ICF runs in two pipeline steps: hashing is sharded across the worker
// pool (ICFHash, a FunctionPass — each function's canonical encoding
// depends only on that function), while the fold itself stays a short
// sequential barrier (ICF.Run compares and mutates arbitrary function
// pairs, so it cannot run per-function). Splitting the expensive half
// out takes both ICF rounds off the whole-binary barrier list.

// ICFHash hashes each candidate function's canonical body encoding
// (core.AppendCanonical) ahead of the fold. Schedule it (via
// ForEachFunction) immediately before the matching ICF round.
type ICFHash struct{ Round int }

// Name implements core.FunctionPass.
func (p ICFHash) Name() string { return fmt.Sprintf("icf-%d-hash", p.Round) }

// RunOnFunction implements core.FunctionPass. The encoding streams
// through the worker's reusable scratch buffer.
func (p ICFHash) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	if icfEligible(fn) {
		fn.ICFHash, fc.Scratch = core.HashCanonical(fc.Scratch, fn)
		fc.CountStat("icf-hashed", 1)
	}
	return nil
}

// icfEligible reports whether ICF may consider folding fn.
func icfEligible(fn *core.BinaryFunction) bool {
	if !fn.Simple || fn.FoldedInto != nil || fn.Name == "_start" {
		return false
	}
	// Conservative: exception tables complicate folding.
	return !fn.HasLSDA
}

// ICF is the fold step: a sequential barrier that buckets functions by
// their precomputed hash and folds congruent ones.
type ICF struct{ Round int }

// Name implements core.Pass.
func (p ICF) Name() string { return fmt.Sprintf("icf-%d", p.Round) }

// Run implements core.Pass. Functions are visited in the context's
// address-sorted order, so the kept (canonical) member of every
// congruence class is deterministic regardless of how the hashes were
// computed. A function folds only into a kept function whose canonical
// encoding is byte-equal to its own, so a hash collision can never fold
// distinct bodies.
func (p ICF) Run(ctx *core.BinaryContext) error {
	buckets := make(map[uint64][]*core.BinaryFunction, len(ctx.Funcs))
	var enc, keptEnc []byte
	for _, fn := range ctx.Funcs {
		if !icfEligible(fn) {
			continue
		}
		// Consume the cached hash: bodies may change before the next
		// round recomputes it. Compute on demand when ICF runs without a
		// preceding ICFHash pass (a genuine zero hash is just recomputed).
		h := fn.ICFHash
		fn.ICFHash = 0
		if h == 0 {
			h, enc = core.HashCanonical(enc, fn)
		}
		var kept *core.BinaryFunction
		if cands := buckets[h]; len(cands) > 0 {
			enc = core.AppendCanonical(enc[:0], fn)
			for _, c := range cands {
				keptEnc = core.AppendCanonical(keptEnc[:0], c)
				if bytes.Equal(enc, keptEnc) {
					kept = c
					break
				}
			}
		}
		if kept == nil {
			buckets[h] = append(buckets[h], fn)
			continue
		}
		fn.FoldedInto = kept
		kept.Aliases = append(kept.Aliases, fn.Name)
		kept.ExecCount += fn.ExecCount
		// Merge block profile so layout decisions see total heat.
		for i, b := range fn.Blocks {
			if i < len(kept.Blocks) {
				kept.Blocks[i].ExecCount += b.ExecCount
				for k := range b.Succs {
					if k < len(kept.Blocks[i].Succs) {
						kept.Blocks[i].Succs[k].Count += b.Succs[k].Count
						kept.Blocks[i].Succs[k].Mispreds += b.Succs[k].Mispreds
					}
				}
			}
		}
		ctx.CountStat("icf-folded", 1)
		ctx.CountStat("icf-bytes", int64(fn.Size))
	}
	return nil
}
