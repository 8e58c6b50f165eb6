package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pario/internal/chio"
)

// span is one timed call into a layer, recorded by the benchmark's own
// shims (nothing inside the program is instrumented).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Where  string `json:"where,omitempty"` // rank, server or file-system label
	Op     string `json:"op"`
	File   string `json:"file,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory. A span's parent is the innermost span
// still open on the same goroutine; a client read issued from a
// collective-I/O leader goroutine (which has no open span) is handed to
// the collio read of the same file that is waiting for it, so the
// round's fetch is not counted twice.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	stacks map[uint64][]int64
	open   map[int64]*span
	spans  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stacks: map[uint64][]int64{}, open: map[int64]*span{}}
}

// handoffFrom names, for a layer whose calls may run on a helper
// goroutine, the layer above that waits for them.
var handoffFrom = map[string]string{"pvfs": "collio", "ceft": "collio"}

type activeSpan struct {
	t   *tracer
	s   *span
	gid uint64
}

func (t *tracer) start(layer, where, op, file string) activeSpan {
	if t == nil {
		return activeSpan{}
	}
	gid := goid()
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.nextID++
	s := &span{ID: t.nextID, Layer: layer, Where: where, Op: op, File: file, Start: now}
	if st := t.stacks[gid]; len(st) > 0 {
		s.Parent = st[len(st)-1]
	} else if up, ok := handoffFrom[layer]; ok {
		s.Parent = t.waitingParent(up, file)
	}
	t.stacks[gid] = append(t.stacks[gid], s.ID)
	t.open[s.ID] = s
	t.mu.Unlock()
	return activeSpan{t: t, s: s, gid: gid}
}

// waitingParent picks the open span of layer on file to adopt a
// helper goroutine's span, preferring one that is itself nested in a
// caller's span. Caller holds t.mu.
func (t *tracer) waitingParent(layer, file string) int64 {
	var nested, first int64
	for _, o := range t.open {
		if o.Layer != layer || o.File != file {
			continue
		}
		if o.Parent != 0 && (nested == 0 || o.ID < nested) {
			nested = o.ID
		}
		if first == 0 || o.ID < first {
			first = o.ID
		}
	}
	if nested != 0 {
		return nested
	}
	return first
}

func (a activeSpan) end(bytes int64) {
	if a.t == nil {
		return
	}
	now := time.Since(a.t.epoch).Nanoseconds()
	a.t.mu.Lock()
	a.s.End = now
	a.s.Bytes = bytes
	st := a.t.stacks[a.gid]
	if n := len(st); n > 0 && st[n-1] == a.s.ID {
		st = st[:n-1]
	}
	if len(st) == 0 {
		delete(a.t.stacks, a.gid)
	} else {
		a.t.stacks[a.gid] = st
	}
	delete(a.t.open, a.s.ID)
	a.t.spans = append(a.t.spans, *a.s)
	a.t.mu.Unlock()
}

// mark returns a position in the finished-span log; since(mark)
// returns the spans finished after it, so phases run one after another
// read their own spans.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover, keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// subtree returns the spans descending from root, root included. A
// parent always starts, and so is numbered, before its children, so
// one pass in ID order finds them all.
func subtree(spans []span, root int64) []span {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	in := map[int64]bool{root: true}
	var out []span
	for _, s := range sorted {
		if in[s.ID] || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes spans as JSON to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceFS is a timing shim over one layer's chio.FileSystem. It adds a
// span around every call and forwards exactly the capability
// interfaces the inner layer implements: advertising one the layer
// lacks, or hiding one it has, would change how the layer above reads
// (dropping chio.ViewReaderAt, for instance, turns the packed kernel
// off).
type traceFS struct {
	inner chio.FileSystem
	t     *tracer
	layer string
	where string
}

// ctxTraceFS is a traceFS over a layer that implements
// chio.ContextBinder.
type ctxTraceFS struct{ *traceFS }

func wrapFS(inner chio.FileSystem, t *tracer, layer, where string) chio.FileSystem {
	fs := &traceFS{inner: inner, t: t, layer: layer, where: where}
	if _, ok := inner.(chio.ContextBinder); ok {
		return ctxTraceFS{fs}
	}
	return fs
}

func (c ctxTraceFS) WithContext(ctx context.Context) chio.FileSystem {
	return wrapFS(c.inner.(chio.ContextBinder).WithContext(ctx), c.t, c.layer, c.where)
}

func (fs *traceFS) BackendName() string { return fs.inner.BackendName() }

func (fs *traceFS) Create(name string) (chio.File, error) {
	sp := fs.t.start(fs.layer, fs.where, "create", name)
	f, err := fs.inner.Create(name)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	return wrapFile(f, fs, name), nil
}

func (fs *traceFS) Open(name string) (chio.File, error) {
	sp := fs.t.start(fs.layer, fs.where, "open", name)
	f, err := fs.inner.Open(name)
	sp.end(0)
	if err != nil {
		return nil, err
	}
	return wrapFile(f, fs, name), nil
}

func (fs *traceFS) Stat(name string) (chio.FileInfo, error) {
	sp := fs.t.start(fs.layer, fs.where, "stat", name)
	fi, err := fs.inner.Stat(name)
	sp.end(0)
	return fi, err
}

func (fs *traceFS) Remove(name string) error {
	sp := fs.t.start(fs.layer, fs.where, "remove", name)
	err := fs.inner.Remove(name)
	sp.end(0)
	return err
}

func (fs *traceFS) List(prefix string) ([]chio.FileInfo, error) {
	sp := fs.t.start(fs.layer, fs.where, "list", prefix)
	fis, err := fs.inner.List(prefix)
	sp.end(0)
	return fis, err
}

// traceFile times the data calls of one open file. The capability
// methods live on separate small types so wrapFile can assemble a
// value with exactly the inner file's set.
type traceFile struct {
	chio.File
	fs   *traceFS
	name string
}

func (f *traceFile) timed(op string, call func() (int, error)) (int, error) {
	sp := f.fs.t.start(f.fs.layer, f.fs.where, op, f.name)
	n, err := call()
	sp.end(int64(n))
	return n, err
}

func (f *traceFile) Read(p []byte) (int, error) {
	return f.timed("read", func() (int, error) { return f.File.Read(p) })
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	return f.timed("read", func() (int, error) { return f.File.ReadAt(p, off) })
}

func (f *traceFile) Write(p []byte) (int, error) {
	return f.timed("write", func() (int, error) { return f.File.Write(p) })
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	return f.timed("write", func() (int, error) { return f.File.WriteAt(p, off) })
}

type viewCap struct{ f *traceFile }

func (c viewCap) ReadView(off, n int64) (chio.View, error) {
	var v chio.View
	_, err := c.f.timed("read", func() (int, error) {
		var err error
		v, err = c.f.File.(chio.ViewReaderAt).ReadView(off, n)
		return len(v.Data), err
	})
	return v, err
}

type vecCap struct{ f *traceFile }

func (c vecCap) ReadvAt(segs []chio.Seg, dst []byte) ([]int64, error) {
	var lens []int64
	_, err := c.f.timed("read", func() (int, error) {
		var err error
		lens, err = c.f.File.(chio.VectorReaderAt).ReadvAt(segs, dst)
		var n int64
		for _, l := range lens {
			n += l
		}
		return int(n), err
	})
	return lens, err
}

// hintCap forwards range hints untimed: they are advisory and do no I/O.
type hintCap struct{ f *traceFile }

func (c hintCap) HintRanges(segs []chio.Seg) { c.f.File.(chio.RangeHinter).HintRanges(segs) }

func wrapFile(inner chio.File, fs *traceFS, name string) chio.File {
	f := &traceFile{File: inner, fs: fs, name: name}
	_, view := inner.(chio.ViewReaderAt)
	_, vec := inner.(chio.VectorReaderAt)
	_, hint := inner.(chio.RangeHinter)
	v, r, h := viewCap{f}, vecCap{f}, hintCap{f}
	switch {
	case view && vec && hint:
		return struct {
			*traceFile
			viewCap
			vecCap
			hintCap
		}{f, v, r, h}
	case view && vec:
		return struct {
			*traceFile
			viewCap
			vecCap
		}{f, v, r}
	case view && hint:
		return struct {
			*traceFile
			viewCap
			hintCap
		}{f, v, h}
	case vec && hint:
		return struct {
			*traceFile
			vecCap
			hintCap
		}{f, r, h}
	case view:
		return struct {
			*traceFile
			viewCap
		}{f, v}
	case vec:
		return struct {
			*traceFile
			vecCap
		}{f, r}
	case hint:
		return struct {
			*traceFile
			hintCap
		}{f, h}
	}
	return f
}
