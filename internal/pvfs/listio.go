package pvfs

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"pario/internal/chio"
)

// This file is the client half of list I/O (OpListRead/OpListWrite),
// the only piece read/write path a client sends: every stripe run
// destined for one data server travels in a single list RPC, whatever
// the shape of the logical request — one contiguous range, a strided
// range, or the per-server decomposition of many discontiguous ranges
// at once. Runs that overlap or abut in the server's piece are merged
// into one wire segment before sending (consecutive stripes of one
// server abut in its piece even though they are a full round apart in
// the logical file). With WithoutCoalescing every run is its own
// single-segment list RPC instead, the one-RPC-per-run baseline.
// Servers still answer the older single-range and vectored ops, by
// mapping them onto the same list handlers.

// byOffset returns the indices of segs in ascending offset order.
func byOffset(segs []Seg) []int {
	order := make([]int, len(segs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(segs[a].Offset, segs[b].Offset) })
	return order
}

// mergeSegs merges the ranges of segs that overlap or abut into
// maximal extents, returned in ascending offset order, and reports
// each segment's extent index. A range that stops one byte short of
// the next stays a separate extent.
func mergeSegs(segs []Seg) (ext []Seg, group []int) {
	group = make([]int, len(segs))
	for _, i := range byOffset(segs) {
		s := segs[i]
		if k := len(ext) - 1; k >= 0 && s.Offset <= ext[k].Offset+ext[k].Length {
			ext[k].Length = max(ext[k].Length, s.Offset+s.Length-ext[k].Offset)
		} else {
			ext = append(ext, s)
		}
		group[i] = len(ext) - 1
	}
	return ext, group
}

// ascending reports whether segs are in ascending offset order with no
// two overlapping.
func ascending(segs []Seg) bool {
	for i := 1; i < len(segs); i++ {
		if segs[i].Offset < segs[i-1].Offset+segs[i-1].Length {
			return false
		}
	}
	return true
}

// within returns the bytes of s held by an extent that starts at off
// and whose served bytes are v (short when the piece ends inside it).
func within(v []byte, off int64, s Seg) []byte {
	rel := s.Offset - off
	if rel >= int64(len(v)) {
		return nil
	}
	return v[rel : rel+min(s.Length, int64(len(v))-rel)]
}

// runSegs returns the server-local range of each run.
func runSegs(runs []StripeRun) []Seg {
	segs := make([]Seg, len(runs))
	for i, r := range runs {
		segs[i] = Seg{Offset: r.ServerOff, Length: r.Length}
	}
	return segs
}

// readRuns reads every run in runs (all on the server behind t) into
// p, scattering each run's bytes at its BufOff and zero-filling
// hole/EOF tails. Runs may be unsorted and may overlap in the piece.
// Several runs travel as one OpListRead; a single run (or every run,
// under WithoutCoalescing) goes through readRun.
func readRuns(ctx context.Context, t *transport, handle uint64, runs []StripeRun, p []byte) error {
	if len(runs) == 0 {
		return nil
	}
	if len(runs) == 1 || t.cfg.NoCoalesce {
		for _, r := range runs {
			if err := readRun(ctx, t, handle, r, p); err != nil {
				return err
			}
		}
		t.observeBatch(len(runs), len(runs))
		return nil
	}
	segs := runSegs(runs)
	ext, group := mergeSegs(segs)
	resp := getResp()
	defer putResp(resp)
	if err := t.callInto(ctx, &Request{Op: OpListRead, Handle: handle, Segs: ext}, resp); err != nil {
		return err
	}
	if !resp.OK {
		return resp.err()
	}
	if len(resp.SegLens) != len(ext) {
		return fmt.Errorf("pvfs: list read returned %d segment lengths for %d segments",
			len(resp.SegLens), len(ext))
	}
	// Slice the concatenated payload back into per-extent views.
	data := resp.Data
	views := make([][]byte, len(ext))
	for k, e := range ext {
		got := resp.SegLens[k]
		if got < 0 || got > e.Length || got > int64(len(data)) {
			return fmt.Errorf("pvfs: list read segment %d: bad length %d (want <= %d, %d bytes left)",
				k, got, e.Length, len(data))
		}
		views[k] = data[:got]
		data = data[got:]
	}
	for i, r := range runs {
		dst := p[r.BufOff : r.BufOff+r.Length]
		n := copy(dst, within(views[group[i]], ext[group[i]].Offset, segs[i]))
		// Holes and EOF read back as zeros.
		clear(dst[n:])
	}
	t.observeBatch(len(runs), 1)
	return nil
}

// readRun reads one run into p[r.BufOff:r.BufOff+r.Length] with a
// single-segment OpListRead, decoding the reply payload directly into
// that region: the response's Data slice is preset to the destination
// with zero length, and gob reuses a slice whose capacity suffices, so
// the bytes move once with no per-RPC payload allocation.
func readRun(ctx context.Context, t *transport, handle uint64, r StripeRun, p []byte) error {
	// Three-index slice: cap the destination at the run length so a
	// corrupt over-long reply can never scribble past the run's region.
	dst := p[r.BufOff : r.BufOff+r.Length : r.BufOff+r.Length]
	resp := getResp()
	saved := resp.Data // keep the pooled payload buffer across the borrow
	resp.Data = dst[:0]
	req := &Request{Op: OpListRead, Handle: handle, Segs: []Seg{{Offset: r.ServerOff, Length: r.Length}}}
	err := t.callInto(ctx, req, resp)
	if err == nil && !resp.OK {
		err = resp.err()
	}
	if err == nil {
		got := len(resp.Data)
		if got > 0 && &resp.Data[0] != &dst[0] {
			// The decoder reallocated (reply exceeded the run length);
			// keep only what fits.
			got = copy(dst, resp.Data)
		}
		// Holes and EOF read back as zeros.
		clear(dst[got:])
	}
	resp.Data = saved
	putResp(resp)
	return err
}

// writeRuns writes every run in runs (all on the server behind t) from
// p. Several runs travel as one OpListWrite whose payload is the runs'
// bytes gathered in piece order; a single run is sent straight from p,
// and under WithoutCoalescing every run is its own list RPC. Runs must
// not overlap in the piece: the server refuses such a list whole.
func writeRuns(ctx context.Context, t *transport, handle uint64, runs []StripeRun, p []byte) error {
	if len(runs) == 0 {
		return nil
	}
	if len(runs) == 1 || t.cfg.NoCoalesce {
		for _, r := range runs {
			seg := []Seg{{Offset: r.ServerOff, Length: r.Length}}
			if err := listWrite(ctx, t, handle, seg, p[r.BufOff:r.BufOff+r.Length]); err != nil {
				return err
			}
		}
		t.observeBatch(len(runs), len(runs))
		return nil
	}
	segs := runSegs(runs)
	ext, _ := mergeSegs(segs)
	var total int64
	for _, r := range runs {
		total += r.Length
	}
	buf := make([]byte, 0, total)
	for _, i := range byOffset(segs) {
		r := runs[i]
		buf = append(buf, p[r.BufOff:r.BufOff+r.Length]...)
	}
	if err := listWrite(ctx, t, handle, ext, buf); err != nil {
		return err
	}
	t.observeBatch(len(runs), 1)
	return nil
}

// listWrite writes segs (non-overlapping server-local ranges) with one
// OpListWrite; data is the segments' bytes concatenated in order.
func listWrite(ctx context.Context, t *transport, handle uint64, segs []Seg, data []byte) error {
	resp := getResp()
	err := t.callInto(ctx, &Request{Op: OpListWrite, Handle: handle, Segs: segs, Data: data}, resp)
	if err == nil && !resp.OK {
		err = resp.err()
	}
	putResp(resp)
	return err
}

// EachServer calls do for every server that has runs, all in
// parallel, and returns the first error in server order. The calling
// goroutine serves the last such server itself, so a request that
// touches one server — the common small read or write — costs no
// goroutine hand-off.
func EachServer(runs [][]StripeRun, do func(server int, list []StripeRun) error) error {
	busy, last := 0, -1
	for server, list := range runs {
		if len(list) > 0 {
			busy, last = busy+1, server
		}
	}
	if busy == 0 {
		return nil
	}
	if busy == 1 {
		return do(last, runs[last])
	}
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for server, list := range runs {
		if len(list) == 0 || server == last {
			continue
		}
		wg.Add(1)
		go func(server int) {
			defer wg.Done()
			errs[server] = do(server, runs[server])
		}(server)
	}
	errs[last] = do(last, runs[last])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SegEnd returns the end offset of the furthest-reaching segment.
func SegEnd(segs []chio.Seg) int64 {
	var end int64
	for _, s := range segs {
		end = max(end, s.Off+s.Len)
	}
	return end
}

// DecomposeSegs lays a chio scatter list out for a file of the given
// size striped over nServers: it validates segs against dst, splits
// the part of each segment the file holds into per-server stripe runs
// (BufOff relative to dst), zeroes each segment's EOF tail in dst, and
// returns the runs, the per-segment served lengths and their sum.
func DecomposeSegs(segs []chio.Seg, dst []byte, size, stripe int64, nServers int) (runs [][]StripeRun, lens []int64, served int64, err error) {
	var total int64
	for _, s := range segs {
		if s.Off < 0 || s.Len < 0 {
			return nil, nil, 0, fmt.Errorf("pvfs: negative segment [%d,+%d)", s.Off, s.Len)
		}
		total += s.Len
	}
	if total > int64(len(dst)) {
		return nil, nil, 0, fmt.Errorf("pvfs: readv needs %d bytes, dst holds %d", total, len(dst))
	}
	runs = make([][]StripeRun, nServers)
	lens = make([]int64, len(segs))
	var base int64
	for i, s := range segs {
		lens[i] = max(0, min(s.Len, size-s.Off))
		if lens[i] > 0 {
			for server, list := range decompose(s.Off, lens[i], stripe, nServers) {
				for _, r := range list {
					r.BufOff += base
					runs[server] = append(runs[server], r)
				}
			}
			served += lens[i]
		}
		// EOF tails read back as zeros.
		clear(dst[base+lens[i] : base+s.Len])
		base += s.Len
	}
	return runs, lens, served, nil
}

// ReadvAt implements chio.VectorReaderAt: every segment is decomposed
// into per-server stripe runs and the whole scatter list travels as
// one list-I/O RPC per data server, issued in parallel. Per-segment
// semantics match ReadAt: holes read as zeros, segments past EOF come
// back short with their dst tails zeroed.
func (f *file) ReadvAt(segs []chio.Seg, dst []byte) ([]int64, error) {
	m, err := f.handle()
	if err != nil {
		return nil, err
	}
	if SegEnd(segs) > m.Size {
		// The file may have grown since open.
		if err := f.refreshSize(&m); err != nil {
			return nil, err
		}
	}
	runs, lens, served, err := DecomposeSegs(segs, dst, m.Size, m.StripeSize, len(f.cl.data))
	if err != nil {
		return nil, err
	}
	ctx, sp := f.cl.cfg.Tracer.Start(f.cl.ctx, "readv")
	err = EachServer(runs, func(server int, list []StripeRun) error {
		return readRuns(ctx, f.cl.data[server], m.Handle, list, dst)
	})
	if err != nil {
		sp.Finish(err)
		return nil, err
	}
	sp.AddBytes(served)
	sp.Finish(nil)
	return lens, nil
}
