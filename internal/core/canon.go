package core

//boltvet:hot-path canonical instruction encoding, run on every function by both ICF rounds

import (
	"encoding/binary"

	"gobolt/internal/stale"
)

// canonLevel selects how much of each instruction the canonical walk
// encodes. One walk serves both notions of "same code" in the optimizer,
// so they cannot drift apart.
type canonLevel uint8

const (
	// canonOpcode appends each instruction's (Op, Cc) bytes and nothing
	// else: the stale-profile block hash (profile v2 shapes), which must
	// survive register allocation and address changes between builds.
	canonOpcode canonLevel = iota
	// canonFull appends everything that decides whether two bodies
	// behave identically once internal targets are normalized to block
	// positions: the ICF congruence encoding.
	canonFull
)

// AppendCanonical appends the full canonical encoding of fn's body to buf
// and returns the extended buffer. Two eligible functions are congruent
// for ICF exactly when their encodings are byte-equal: intra-function
// targets are block positions, external targets are symbols, resolved
// data addresses are absolute (data does not move), and the function's
// own jump tables are compared by structure rather than address, so two
// clones with distinct table addresses still fold — the capability
// linkers lack (§4). Every variable-length field is length-prefixed, so
// no symbol name can splice into the encoding of another instruction.
// AppendCanonical does not allocate once buf has grown to fit.
func AppendCanonical(buf []byte, fn *BinaryFunction) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(fn.Blocks)))
	for _, b := range fn.Blocks {
		buf = appendCanonBlock(buf, fn, b, canonFull)
	}
	return buf
}

// HashCanonical returns the 64-bit hash of fn's full canonical encoding,
// streaming it through buf; it returns the grown buffer for reuse.
func HashCanonical(buf []byte, fn *BinaryFunction) (uint64, []byte) {
	buf = AppendCanonical(buf[:0], fn)
	return stale.HashBytes(buf), buf
}

// appendCanonBlock is the one canonical instruction walk. At canonOpcode
// it appends exactly the (Op, Cc) byte pairs that profile v2 block hashes
// have always covered, so shapes already on disk keep matching.
func appendCanonBlock(buf []byte, fn *BinaryFunction, b *BasicBlock, lvl canonLevel) []byte {
	if lvl == canonFull {
		buf = binary.AppendUvarint(buf, uint64(len(b.Insts)))
	}
	for k := range b.Insts {
		in := &b.Insts[k]
		buf = append(buf, byte(in.I.Op), byte(in.I.Cc))
		if lvl == canonOpcode {
			continue
		}
		// Branch targets (Target, TargetAddr) are byte-level layout
		// fields and stay out; the CFG edges below carry the structure.
		buf = append(buf, byte(in.I.R1), byte(in.I.R2))
		buf = binary.AppendVarint(buf, in.I.Imm)
		// Every optional part starts with a tag byte and every string
		// carries its length, so one encoding parses back one way only.
		switch {
		case in.MemTarget != 0 && ownsJT(fn, in.MemTarget):
			buf = append(buf, 'J')
		case in.MemTarget != 0:
			buf = append(buf, 'M')
			buf = binary.AppendUvarint(buf, in.MemTarget)
		case in.I.HasMem():
			m := &in.I.M
			buf = append(buf, 'm', byte(m.Base), byte(m.Index), m.Scale, canonBool(m.RIP))
			buf = binary.AppendVarint(buf, int64(m.Disp))
		default:
			buf = append(buf, 0)
		}
		buf = appendCanonString(buf, in.TargetSym)
		buf = appendCanonString(buf, in.ImmSym)
		if in.JT == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 'T', canonBool(in.JT.PIC))
		buf = binary.AppendUvarint(buf, uint64(len(in.JT.Targets)))
		for _, t := range in.JT.Targets {
			buf = binary.AppendVarint(buf, int64(blockPos(fn, t)))
		}
	}
	if lvl == canonFull {
		buf = binary.AppendUvarint(buf, uint64(len(b.Succs)))
		for _, e := range b.Succs {
			buf = binary.AppendVarint(buf, int64(blockPos(fn, e.To)))
		}
	}
	return buf
}

// canonBool encodes a flag as one byte.
func canonBool(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendCanonString appends s with a length prefix.
func appendCanonString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ownsJT reports whether addr is one of fn's own jump tables. Functions
// carry a handful of tables at most, so a scan beats building a set.
func ownsJT(fn *BinaryFunction, addr uint64) bool {
	for _, jt := range fn.JTs {
		if jt.Addr == addr {
			return true
		}
	}
	return false
}

// blockPos returns b's position in fn.Blocks, or -1 when b is nil or not
// one of fn's blocks.
func blockPos(fn *BinaryFunction, b *BasicBlock) int {
	if b != nil && b.Index >= 0 && b.Index < len(fn.Blocks) && fn.Blocks[b.Index] == b {
		return b.Index
	}
	return -1
}
