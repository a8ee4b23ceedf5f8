package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/passes"
	"gobolt/internal/profile"
)

// A span is one call into a layer. Parent is the index of the span that
// made the call (-1 for none). The counters are the process's CPU time,
// allocated bytes and GC CPU time consumed between Start and End.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
	CPU    time.Duration `json:"cpu_ns"`
	Alloc  uint64        `json:"alloc_bytes"`
	GCCPU  time.Duration `json:"gc_cpu_ns"`

	open probe
}

func (s *span) wall() time.Duration { return s.End - s.Start }

// tracer keeps a run's spans in memory; write puts them out once the
// run is over, so no file I/O falls inside a span.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

// begin opens a span; on a nil tracer it records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	p := readProbe()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: p.at.Sub(t.t0), open: p})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	c := s.open.since()
	s.End = s.Start + c.wall
	s.CPU, s.Alloc, s.GCCPU = c.cpu, c.alloc, c.gcCPU
}

// do records fn as a span named name under parent; fn gets the span's
// index to parent its own calls.
func (t *tracer) do(name string, parent int, fn func(id int) error) error {
	id := t.begin(name, parent)
	err := fn(id)
	t.end(id)
	return err
}

// computeSelf sets each span's self time: its wall minus the part its
// children cover. Children of one span run one after another.
func (t *tracer) computeSelf() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].wall()
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.wall()
		}
	}
}

// children returns the indexes of the spans parent called directly.
func (t *tracer) children(parent int) []int {
	var out []int
	for i := range t.spans {
		if t.spans[i].Parent == parent {
			out = append(out, i)
		}
	}
	return out
}

func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.MarshalIndent(struct {
		RunID    string `json:"run_id"`
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.runID, workload, seed, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// tracedResult is what a traced optimize leaves besides its spans: the
// counters the layers kept, read where the work happened.
type tracedResult struct {
	root    int // the operation's span
	out     []byte
	stats   map[string]int64
	rewrite *core.RewriteResult
	fdata   *profile.Fdata
}

// tracedOptimize performs the same work as optimize, one span per call
// into a layer: the steps bolt.Session takes, called directly, and the
// pass pipeline run one pass at a time through PassManager.Run, the loop
// Run itself executes. The output must be byte-identical to optimize's.
func tracedOptimize(cx context.Context, t *tracer, w workloadDef, binary, fdata []byte) (*tracedResult, error) {
	root := t.begin("optimize", -1)
	defer t.end(root)
	opts := core.DefaultOptions()
	for _, o := range w.options() {
		o(&opts)
	}
	opts = opts.Normalized()

	var (
		f    *elfx.File
		bctx *core.BinaryContext
		res  = tracedResult{root: root}
		err  error
	)
	steps := []struct {
		name string
		fn   func(id int) error
	}{
		// elfx.read and elfx.write include the copies bolt.OpenReader
		// and Session.WriteTo make, so that the stage sum prices the
		// same work as an untraced operation.
		{"elfx.read", func(int) error {
			data, err := io.ReadAll(bytes.NewReader(binary))
			if err != nil {
				return err
			}
			f, err = elfx.Read(data)
			return err
		}},
		// The Session fingerprints its input before any stage runs.
		{"bolt.fingerprint", func(int) error {
			data, err := f.Bytes()
			_ = sha256.Sum256(data)
			return err
		}},
		{"profile.parse", func(int) error {
			res.fdata, err = profile.ParseData(cx, fdata, jobs)
			return err
		}},
		{"core.load", func(int) error {
			bctx, err = core.NewContext(cx, f, opts)
			return err
		}},
		{"core.apply_profile", func(int) error { return bctx.ApplyProfile(cx, res.fdata) }},
		{"passes", func(id int) error {
			pm := core.NewPassManager(opts.Jobs)
			for _, p := range passes.BuildPipeline(opts) {
				if err := t.do("passes."+p.Name(), id, func(int) error {
					return pm.Run(cx, bctx, []core.Pass{p})
				}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"core.emit", func(int) error {
			res.rewrite, err = bctx.Rewrite(cx)
			return err
		}},
		{"elfx.write", func(int) error {
			data, err := res.rewrite.File.Bytes()
			var out bytes.Buffer
			out.Write(data)
			res.out = out.Bytes()
			return err
		}},
	}
	for _, s := range steps {
		if err := t.do(s.name, root, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	res.stats = make(map[string]int64, len(bctx.Stats))
	for k, v := range bctx.Stats {
		res.stats[k] = v
	}
	return &res, nil
}
