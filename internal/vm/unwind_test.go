package vm

import (
	"strings"
	"testing"

	"gobolt/internal/cfi"
)

// TestUnwindRejectsOutOfRangeRegister: the decoder admits registers up
// to cfi.NumRegs-1 = 16, one past the VM's register file. Unwinding
// through a frame that names r16 must fail with an error, not index
// past Regs.
func TestUnwindRejectsOutOfRangeRegister(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   cfi.Inst
		want string
	}{
		{"saved", cfi.Inst{Kind: cfi.OpOffset, Reg: 16, Off: -16}, "saved register r16"},
		{"cfa", cfi.Inst{Kind: cfi.OpDefCfaRegister, Reg: 16}, "CFA register r16"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &Machine{fdes: []cfi.FDE{{
				Start: 0x1000, Len: 0x10,
				Insts: []cfi.PCInst{{PC: 1, Inst: tc.in}},
			}}, stack: make([]byte, stackSize)}
			// A mapped CFA, so the spill slot read itself succeeds.
			m.Regs[4] = stackBase + stackSize/2
			_, err := m.unwind(0x1008)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("unwind error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
