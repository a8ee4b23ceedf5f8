package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"gobolt/bolt"
	"gobolt/internal/bench"
	"gobolt/internal/elfx"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/uarch"
	"gobolt/internal/workload"
)

// A workloadDef is one profile path through the optimizer. The reasons
// each exists are in notes.json; in short, clang-lbr is the paper's
// Figure 7 subject on the fresh-LBR path, clang-samples differs from it
// only in the profile (non-LBR samples, so minimum-cost-flow inference
// runs), and hhvm-lite-stale is the largest binary optimized in lite
// mode with the previous release's profile, so stale matching runs.
type workloadDef struct {
	name string
	// preset is the workload generator's evaluation subject.
	preset func() workload.Spec
	mode   perf.Mode
	lite   bool
	// stale profiles the previous release and optimizes the next one
	// (EntryPadOps grown), embedding the previous release's CFG shapes
	// in the profile as `vmrun -record` does.
	stale bool
}

var workloads = []workloadDef{
	{name: "clang-lbr", preset: workload.Clang, mode: perf.DefaultMode()},
	{name: "clang-samples", preset: workload.Clang, mode: sampleMode()},
	{name: "hhvm-lite-stale", preset: workload.HHVM, mode: perf.DefaultMode(), lite: true, stale: true},
}

// sampleMode is perf's default event and period without LBR: plain PC
// samples.
func sampleMode() perf.Mode {
	m := perf.DefaultMode()
	m.LBR = false
	return m
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// nextReleasePad is the version skew between the profiled release and
// the optimized one on the stale workload (the continuous-profiling
// experiment's lever).
const nextReleasePad = 3

// trainingInputs and heldOutInputs size a run's evaluation. Each
// training input gives one fresh profile of its own, optimized on its
// own; the quality is summed over every pair of such an output and a
// held-out input. With one profile and one held-out input the miss
// ratios swing by several percent from seed to seed; summing over pairs
// steadies them while every profile stays one short training run, the
// setting the known defects show in.
const (
	trainingInputs = 3
	heldOutInputs  = 3
)

// spec returns the workload's program at the size the benchmark runs.
// The binary is the full preset, so the optimizer's cost is that of the
// real subject; the simulated run lengths are cut to a twentieth
// (minimum 500 iterations, as bench.Scale(0.05) cuts them), the scale of
// the repository's recorded measurements, so that profiling and
// simulation fit in a run. small swaps in the tiny preset for the
// self-tests.
func (w workloadDef) spec(small bool) workload.Spec {
	s := w.preset()
	if small {
		s = workload.Tiny()
	}
	s.Iterations = max(s.Iterations/20, 500)
	return s
}

// inputSeeds derives the training inputs and then the held-out inputs
// from the run's seed. The program structure is the preset's; only the
// input data the binaries run on comes from the seed.
func inputSeeds(seed uint64) []uint64 {
	seeds := make([]uint64, trainingInputs+heldOutInputs)
	for i := range seeds {
		seeds[i] = mix(seed*uint64(len(seeds)) + uint64(i) + 1)
	}
	return seeds
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// simRun is one simulated run of a binary on one input.
type simRun struct {
	checksum uint64
	m        uarch.Metrics
}

// inputs is everything set-up hands the optimizer and the checks. The
// optimizer sees only the binary and one profile at a time.
type inputs struct {
	binary []byte
	// profiles[i] is the fdata recorded on training input seeds[i].
	profiles [][]byte
	seeds    []uint64 // training inputs, then held-out inputs
	// base is the input binary simulated on each of seeds.
	base []simRun
}

// fingerprint hashes the binary and the profiles.
func (in *inputs) fingerprint() (binary, profiles string) {
	return sha(in.binary), sha(bytes.Join(in.profiles, nil))
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// setup builds the workload's binary from the seed, profiles it on each
// training input, and simulates it on every input: the work a user does
// before the optimizer runs, and the baseline the quality is judged
// against. The binary carries the first training input.
func setup(w workloadDef, seed uint64, small bool) (*inputs, error) {
	seeds := inputSeeds(seed)
	spec := w.spec(small)
	spec.InputSeed = seeds[0]
	target, err := build(spec, w.mode)
	if err != nil {
		return nil, err
	}
	profiled := target
	if w.stale {
		next := spec
		next.EntryPadOps = nextReleasePad
		if target, err = build(next, w.mode); err != nil {
			return nil, fmt.Errorf("next release: %w", err)
		}
	}
	bin, err := target.Bytes()
	if err != nil {
		return nil, err
	}
	profiledBin, err := profiled.Bytes()
	if err != nil {
		return nil, err
	}
	var shapes map[string]profile.FuncShape
	if w.stale {
		sess, err := bolt.OpenELF(profiled)
		if err != nil {
			return nil, err
		}
		if err := sess.Analyze(context.Background()); err != nil {
			return nil, fmt.Errorf("shapes: %w", err)
		}
		if shapes, err = sess.Shapes(); err != nil {
			return nil, fmt.Errorf("shapes: %w", err)
		}
	}
	in := &inputs{binary: bin, seeds: seeds}
	for _, s := range seeds[:trainingInputs] {
		f, err := withInput(profiledBin, s)
		if err != nil {
			return nil, err
		}
		fd, _, err := perf.RecordFile(f, w.mode, 0)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		fd.Shapes = shapes
		var fdata bytes.Buffer
		if err := fd.Write(&fdata); err != nil {
			return nil, err
		}
		in.profiles = append(in.profiles, fdata.Bytes())
	}
	if in.base, err = simulate(bin, seeds); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return in, nil
}

// build compiles and links a program. The linker appends the symbols of
// the functions it folded in map order, so two links of one program list
// them in different orders, and the first symbol at an address names the
// function for the optimizer. build puts those alias symbols in name
// order, in the slots the linker gave them, so that one seed always
// gives one binary.
func build(spec workload.Spec, mode perf.Mode) (*elfx.File, error) {
	f, _, err := bench.Build(spec, bench.CfgBaseline, mode)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	seen := map[uint64]bool{}
	var slots []int
	for i, s := range f.Symbols {
		if s.Type != elfx.STTFunc {
			continue
		}
		if seen[s.Value] {
			slots = append(slots, i)
		}
		seen[s.Value] = true
	}
	aliases := make([]elfx.Symbol, len(slots))
	for k, i := range slots {
		aliases[k] = f.Symbols[i]
	}
	slices.SortFunc(aliases, func(a, b elfx.Symbol) int { return strings.Compare(a.Name, b.Name) })
	for k, i := range slots {
		f.Symbols[i] = aliases[k]
	}
	return f, nil
}

// withInput reads a serialized binary and swaps in the input of seed.
func withInput(bin []byte, seed uint64) (*elfx.File, error) {
	f, err := elfx.Read(bytes.Clone(bin))
	if err != nil {
		return nil, err
	}
	return f, bench.SetInput(f, seed)
}

// simulate runs a serialized binary to completion under the
// microarchitecture model once per input seed.
func simulate(bin []byte, seeds []uint64) ([]simRun, error) {
	runs := make([]simRun, len(seeds))
	for i, s := range seeds {
		f, err := withInput(bin, s)
		if err != nil {
			return nil, err
		}
		m, err := bench.Measure(f, uarch.DefaultConfig(), false)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		runs[i] = simRun{checksum: m.Checksum, m: *m.Metrics}
	}
	return runs, nil
}

// embeddedInput returns the input-data blob a built binary carries.
func embeddedInput(bin []byte) ([]byte, error) {
	f, err := elfx.Read(bin)
	if err != nil {
		return nil, err
	}
	sym, ok := f.SymbolByName("input")
	if !ok {
		return nil, fmt.Errorf("no input symbol")
	}
	sec := f.SectionFor(sym.Value)
	if sec == nil || sym.Value+sym.Size > sec.Addr+sec.Size() {
		return nil, fmt.Errorf("input symbol not mapped")
	}
	off := sym.Value - sec.Addr
	return sec.Data[off : off+sym.Size], nil
}

// checkSeeded confirms that the binary carries the training input the
// seed names, and that the next seed would have given another one.
func checkSeeded(in *inputs, seed uint64) error {
	blob, err := embeddedInput(in.binary)
	if err != nil {
		return err
	}
	if !bytes.Equal(blob, workload.InputBytes(in.seeds[0], len(blob))) {
		return fmt.Errorf("binary does not carry the training input of seed %d", seed)
	}
	if bytes.Equal(blob, workload.InputBytes(inputSeeds(seed + 1)[0], len(blob))) {
		return fmt.Errorf("seeds %d and %d give the same training input", seed, seed+1)
	}
	return nil
}
