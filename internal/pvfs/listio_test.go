package pvfs

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"pario/internal/chio"
	"pario/internal/iotrace"
	"pario/internal/rpcpool"
	"pario/internal/util"
)

// listRead sends one OpListRead and returns the served bytes and the
// per-segment served lengths.
func listRead(d *DataConn, handle uint64, segs []Seg) ([]byte, []int64, error) {
	resp, err := d.call(bg, &Request{Op: OpListRead, Handle: handle, Segs: segs})
	if err != nil {
		return nil, nil, err
	}
	return resp.Data, resp.SegLens, nil
}

// TestListReadPropertyRandomSegments is the list-I/O correctness
// property: for any segment list — unsorted, overlapping, touching
// holes, running past EOF — OpListRead returns exactly what per-byte
// sequential reads of the piece would, concatenated in request order
// with per-segment served lengths.
func TestListReadPropertyRandomSegments(t *testing.T) {
	tc := startCluster(t, 1, 64)
	cl := tc.client

	// Piece content with a hole: [0,1000) written, [2000,3000) written,
	// EOF at 3000.
	const eof = 3000
	content := make([]byte, eof)
	rng := util.NewRNG(977)
	for i := range content {
		content[i] = byte(rng.Intn(256))
	}
	for i := 1000; i < 2000; i++ {
		content[i] = 0 // the hole reads back as zeros
	}
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpCreate, Name: "prop", Stripe: 64})
	if err != nil {
		t.Fatal(err)
	}
	handle := resp.Meta.Handle
	d, err := DialData(tc.iods[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WriteRuns(bg, handle, []StripeRun{
		{ServerOff: 0, BufOff: 0, Length: 1000},
		{ServerOff: 2000, BufOff: 2000, Length: 1000},
	}, content); err != nil {
		t.Fatal(err)
	}

	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		segs := make([]Seg, len(raw))
		for i, v := range raw {
			// Offsets across the whole piece including past EOF;
			// lengths 0..511.
			segs[i] = Seg{Offset: int64(v) % 3500, Length: int64(v>>7) % 512}
		}
		data, lens, err := listRead(d, handle, segs)
		if err != nil {
			t.Logf("list read: %v", err)
			return false
		}
		if len(lens) != len(segs) {
			return false
		}
		for i, s := range segs {
			want := int64(eof) - s.Offset
			if want < 0 {
				want = 0
			}
			if want > s.Length {
				want = s.Length
			}
			if lens[i] != want {
				t.Logf("seg %d [%d,+%d): served %d, want %d", i, s.Offset, s.Length, lens[i], want)
				return false
			}
			if int64(len(data)) < want {
				return false
			}
			if want > 0 && !bytes.Equal(data[:want], content[s.Offset:s.Offset+want]) {
				t.Logf("seg %d [%d,+%d): data mismatch", i, s.Offset, s.Length)
				return false
			}
			data = data[want:]
		}
		return len(data) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestListWriteUnsortedAndOverlapRejected: unsorted non-overlapping
// lists land correctly in one RPC; overlapping lists are rejected
// whole (order-dependent results must never be silently produced).
func TestListWriteUnsortedAndOverlapRejected(t *testing.T) {
	tc := startCluster(t, 1, 64)
	cl := tc.client
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpCreate, Name: "lw", Stripe: 64})
	if err != nil {
		t.Fatal(err)
	}
	handle := resp.Meta.Handle
	d, err := DialData(tc.iods[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Unsorted, disjoint: payload is request order, not piece order.
	payload := []byte("BBBBAAAA")
	if err := listWrite(bg, d.t, handle, []Seg{
		{Offset: 100, Length: 4}, // "BBBB"
		{Offset: 0, Length: 4},   // "AAAA"
	}, payload); err != nil {
		t.Fatal(err)
	}
	got, lens, err := listRead(d, handle, []Seg{
		{Offset: 0, Length: 4},
		{Offset: 100, Length: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lens[0] != 4 || lens[1] != 4 || string(got) != "AAAABBBB" {
		t.Fatalf("list write landed wrong: data=%q lens=%v", got, lens)
	}

	// Overlapping list: rejected, nothing written.
	err = listWrite(bg, d.t, handle, []Seg{
		{Offset: 200, Length: 8},
		{Offset: 204, Length: 8},
	}, make([]byte, 16))
	if err == nil {
		t.Fatal("overlapping list write was accepted")
	}
}

// TestClientReadvAt drives the chio.VectorReaderAt surface end to end
// over a striped cluster: arbitrary segment lists decompose to one
// list RPC per server and come back byte-identical to ReadAt, with
// EOF tails zeroed in dst.
func TestClientReadvAt(t *testing.T) {
	tc := startCluster(t, 3, 64)
	content := make([]byte, 10_000)
	rng := util.NewRNG(41)
	for i := range content {
		content[i] = byte(rng.Intn(256))
	}
	if err := chio.WriteFull(tc.client, "rv", content); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("rv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	vr, ok := any(f).(chio.VectorReaderAt)
	if !ok {
		t.Fatal("pvfs file does not implement chio.VectorReaderAt")
	}

	segs := []chio.Seg{
		{Off: 9_900, Len: 300}, // EOF tail: 100 served, 200 zeroed
		{Off: 0, Len: 128},     // spans two servers
		{Off: 63, Len: 2},      // straddles a stripe boundary
		{Off: 5_000, Len: 0},   // zero-length
		{Off: 100, Len: 64},    // overlaps the second segment's range
	}
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	dst := make([]byte, total)
	for i := range dst {
		dst[i] = 0xEE
	}
	lens, err := vr.ReadvAt(segs, dst)
	if err != nil {
		t.Fatal(err)
	}
	wantLens := []int64{100, 128, 2, 0, 64}
	var base int64
	for i, s := range segs {
		if lens[i] != wantLens[i] {
			t.Errorf("seg %d: served %d, want %d", i, lens[i], wantLens[i])
		}
		region := dst[base : base+s.Len]
		if !bytes.Equal(region[:lens[i]], content[s.Off:s.Off+lens[i]]) {
			t.Errorf("seg %d: data mismatch", i)
		}
		for j := lens[i]; j < s.Len; j++ {
			if region[j] != 0 {
				t.Errorf("seg %d byte %d: EOF tail = %#x, want 0", i, j, region[j])
				break
			}
		}
		base += s.Len
	}
}

// TestWireOpValuesStable pins every data-op wire value. The list ops
// were appended after the vectored ops precisely so that old clients
// and new servers (and vice versa) keep agreeing on what 64..72 mean;
// a renumbering would pass every same-binary test and corrupt every
// mixed-version deployment. gob itself tolerates the addition because
// the Request/Response shapes are unchanged.
func TestWireOpValuesStable(t *testing.T) {
	want := map[Op]uint8{
		OpPieceRead:          64,
		OpPieceWrite:         65,
		OpPieceRemove:        66,
		OpPing:               67,
		OpPieceWriteDupSync:  68,
		OpPieceWriteDupAsync: 69,
		OpFlushForwards:      70,
		OpPieceReadv:         71,
		OpPieceWritev:        72,
		OpListRead:           73,
		OpListWrite:          74,
	}
	for op, v := range want {
		if uint8(op) != v {
			t.Errorf("%s = %d, want %d (wire values must never shift)", op, uint8(op), v)
		}
	}
}

// TestOldClientAgainstListServer replays the exact request shapes a
// pre-list-I/O client sends — OpPieceRead, OpPieceReadv with sorted
// disjoint Segs, OpPieceWrite, OpPieceWritev — against a server whose
// only piece handlers are the list ones, proving old peers still get
// the answers they expect.
func TestOldClientAgainstListServer(t *testing.T) {
	tc := startCluster(t, 1, 64)
	cl := tc.client
	content := []byte("0123456789abcdef0123456789abcdef")
	if err := chio.WriteFull(cl, "old", content); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpLookup, Name: "old"})
	if err != nil {
		t.Fatal(err)
	}
	handle := resp.Meta.Handle
	d, err := DialData(tc.iods[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// OpPieceRead, the single-range shape.
	r1, err := d.call(bg, &Request{Op: OpPieceRead, Handle: handle, Offset: 4, Length: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.OK || !bytes.Equal(r1.Data, content[4:12]) {
		t.Fatalf("piece read through list-capable server: %q", r1.Data)
	}

	// OpPieceRead of a piece that was never written: a hole, answered
	// OK with no bytes.
	r0, err := d.call(bg, &Request{Op: OpPieceRead, Handle: handle + 1000, Offset: 0, Length: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !r0.OK || len(r0.Data) != 0 {
		t.Fatalf("missing-piece read: ok=%v data=%q", r0.OK, r0.Data)
	}

	// OpPieceReadv, the vectored shape (sorted, disjoint).
	r2, err := d.call(bg, &Request{Op: OpPieceReadv, Handle: handle, Segs: []Seg{
		{Offset: 0, Length: 4}, {Offset: 16, Length: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.OK || string(r2.Data) != "01230123" {
		t.Fatalf("vectored read through list-capable server: %q", r2.Data)
	}

	// OpPieceWrite, the single-range write: acknowledged with the byte
	// count, and the bytes land at Offset.
	w1, err := d.call(bg, &Request{Op: OpPieceWrite, Handle: handle, Offset: 2, Data: []byte("XY")})
	if err != nil {
		t.Fatal(err)
	}
	if !w1.OK || w1.N != 2 {
		t.Fatalf("piece write: ok=%v n=%d", w1.OK, w1.N)
	}

	// OpPieceWritev, the vectored write (sorted, disjoint segments,
	// payload concatenated in order).
	w2, err := d.call(bg, &Request{Op: OpPieceWritev, Handle: handle, Data: []byte("PQRS"), Segs: []Seg{
		{Offset: 8, Length: 2}, {Offset: 20, Length: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !w2.OK || w2.N != 4 {
		t.Fatalf("vectored write: ok=%v n=%d", w2.OK, w2.N)
	}

	want := append([]byte(nil), content...)
	copy(want[2:], "XY")
	copy(want[8:], "PQ")
	copy(want[20:], "RS")
	r3, err := d.call(bg, &Request{Op: OpPieceRead, Handle: handle, Offset: 0, Length: int64(len(content))})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r3.Data, want) {
		t.Fatalf("after legacy writes piece = %q, want %q", r3.Data, want)
	}
}

// TestDecomposeRunsAscendingProperty: within each server's list, runs
// are in strictly ascending ServerOff and BufOff order, so a
// single-range write's gathered payload is already in piece order.
func TestDecomposeRunsAscendingProperty(t *testing.T) {
	f := func(offRaw, lenRaw uint16, stripeSel, nSel uint8) bool {
		stripe := int64(1 + stripeSel%128)
		n := 1 + int(nSel%8)
		off := int64(offRaw % 4096)
		length := int64(lenRaw%4096) + 1
		runs := decompose(off, length, stripe, n)
		for server, list := range runs {
			for i, r := range list {
				if r.Server != server || r.Length <= 0 {
					return false
				}
				if i > 0 {
					prev := list[i-1]
					if r.ServerOff <= prev.ServerOff || r.BufOff <= prev.BufOff {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestVectoredReadWriteRoundTrip exercises multi-run list reads and
// writes end to end through DataConn.WriteRuns/ReadRuns, including
// hole zero-fill and EOF-short segments.
func TestVectoredReadWriteRoundTrip(t *testing.T) {
	tc := startCluster(t, 1, 64)
	cl := tc.client
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpCreate, Name: "v", Stripe: 64})
	if err != nil {
		t.Fatal(err)
	}
	handle := resp.Meta.Handle
	d, err := DialData(tc.iods[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Write two disjoint runs in one list RPC.
	buf := make([]byte, 300)
	for i := range buf {
		buf[i] = byte(i + 1)
	}
	writeRuns := []StripeRun{
		{ServerOff: 0, BufOff: 0, Length: 100},
		{ServerOff: 200, BufOff: 200, Length: 100},
	}
	if err := d.WriteRuns(bg, handle, writeRuns, buf); err != nil {
		t.Fatal(err)
	}

	// Read back three runs: the two written ranges plus the hole
	// between them and a range past EOF.
	got := make([]byte, 500)
	for i := range got {
		got[i] = 0xEE // must be overwritten or zeroed, never left
	}
	readRuns := []StripeRun{
		{ServerOff: 0, BufOff: 0, Length: 100},     // written
		{ServerOff: 100, BufOff: 100, Length: 100}, // hole -> zeros
		{ServerOff: 200, BufOff: 200, Length: 100}, // written
		{ServerOff: 300, BufOff: 300, Length: 200}, // past EOF -> zeros
	}
	if err := d.ReadRuns(bg, handle, readRuns, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], buf[:100]) || !bytes.Equal(got[200:300], buf[200:300]) {
		t.Fatal("list read returned wrong data for written runs")
	}
	for i := 100; i < 200; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, got[i])
		}
	}
	for i := 300; i < 500; i++ {
		if got[i] != 0 {
			t.Fatalf("past-EOF byte %d = %#x, want 0", i, got[i])
		}
	}
}

// TestCoalescedReadMatchesLegacy: the same strided ReadAt produces the
// same bytes with and without coalescing, and the coalesced client
// issues strictly fewer data-server RPCs.
func TestCoalescedReadMatchesLegacy(t *testing.T) {
	const nServers = 2
	const stripe = int64(64)
	tc := startCluster(t, nServers, stripe)

	// Content spanning many stripes per server.
	data := make([]byte, 8*1024)
	for i := range data {
		data[i] = byte(i * 7)
	}
	f, err := tc.client.Create("db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	read := func(opts ...rpcpool.Option) ([]byte, *iotrace.RPCMetrics) {
		m := iotrace.NewRPCMetrics()
		opts = append(opts, rpcpool.WithObserver(m), rpcpool.WithBatchObserver(m))
		var addrs []string
		for _, ds := range tc.iods {
			addrs = append(addrs, ds.Addr())
		}
		cl, err := Dial(tc.mgr.Addr(), addrs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		fr, err := cl.Open("db")
		if err != nil {
			t.Fatal(err)
		}
		defer fr.Close()
		out := make([]byte, len(data))
		if _, err := fr.ReadAt(out, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		return out, m
	}

	fast, fastM := read()
	slow, slowM := read(rpcpool.WithoutCoalescing())
	if !bytes.Equal(fast, data) {
		t.Fatal("coalesced read data mismatch")
	}
	if !bytes.Equal(slow, data) {
		t.Fatal("legacy read data mismatch")
	}
	count := func(m *iotrace.RPCMetrics) (rpcs, saved int64) {
		for _, s := range m.Snapshot() {
			rpcs += s.BatchRPCs
			saved += s.RPCsSaved()
		}
		return
	}
	fastRPCs, fastSaved := count(fastM)
	slowRPCs, slowSaved := count(slowM)
	if fastRPCs >= slowRPCs {
		t.Errorf("coalescing saved nothing: %d vs %d data RPCs", fastRPCs, slowRPCs)
	}
	if fastSaved == 0 {
		t.Error("coalesced client reported zero RPCs saved")
	}
	if slowSaved != 0 {
		t.Errorf("non-coalescing client reported %d RPCs saved", slowSaved)
	}
}

// TestWriteAtSkipsSizeRPCWhenNotExtending: overwriting bytes within
// the file's known size must not issue an OpSetSize metadata RPC.
func TestWriteAtSkipsSizeRPCWhenNotExtending(t *testing.T) {
	tc := startCluster(t, 2, 64)
	f, err := tc.client.Create("w")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, 1024)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	m := iotrace.NewRPCMetrics()
	var addrs []string
	for _, ds := range tc.iods {
		addrs = append(addrs, ds.Addr())
	}
	cl, err := Dial(tc.mgr.Addr(), addrs, rpcpool.WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	metaAddr := tc.mgr.Addr()
	metaCalls := func() int64 {
		for _, s := range m.Snapshot() {
			if s.Server == metaAddr {
				return s.Calls
			}
		}
		return 0
	}
	fw, err := cl.Open("w")
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	before := metaCalls()
	// Interior overwrite: no size RPC.
	if _, err := fw.WriteAt(make([]byte, 100), 50); err != nil {
		t.Fatal(err)
	}
	if got := metaCalls(); got != before {
		t.Errorf("interior overwrite issued %d metadata RPCs, want 0", got-before)
	}
	// Extending write: exactly one size RPC.
	if _, err := fw.WriteAt(make([]byte, 100), 1000); err != nil {
		t.Fatal(err)
	}
	if got := metaCalls(); got != before+1 {
		t.Errorf("extending write issued %d metadata RPCs, want 1", got-before)
	}
	// Verify the size really grew.
	fi, err := cl.Stat("w")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 1100 {
		t.Errorf("size = %d, want 1100", fi.Size)
	}
}

// TestMergeAdjacentBoundaryRuns pins the piece-adjacency merge with
// exact boundary offsets: consecutive stripes of one server abut in
// its piece even though they are a full round apart in the logical
// file, so decompose's per-stripe runs must collapse to one wire
// segment per server — and a run that stops one byte short of the
// boundary must NOT merge with the run starting at it.
func TestMergeAdjacentBoundaryRuns(t *testing.T) {
	const stripe = int64(64)
	const nServers = 2

	// Stripe-aligned read of 4 stripes: each server gets 2 runs that
	// abut in its piece (server 0: [0,64)+[64,128); same for 1).
	runs := decompose(0, 4*stripe, stripe, nServers)
	for server, list := range runs {
		if len(list) != 2 {
			t.Fatalf("server %d: %d runs, want 2", server, len(list))
		}
		segs, group := mergeSegs(runSegs(list))
		if len(segs) != 1 {
			t.Fatalf("server %d: %d wire segments, want 1 (runs %+v)", server, len(segs), list)
		}
		if segs[0].Offset != 0 || segs[0].Length != 2*stripe {
			t.Errorf("server %d: merged segment [%d,+%d), want [0,+%d)",
				server, segs[0].Offset, segs[0].Length, 2*stripe)
		}
		if group[0] != 0 || group[1] != 0 {
			t.Errorf("server %d: group = %v, want [0 0]", server, group)
		}
	}

	// One byte missing at the boundary: [0,63) and [64,128) in the
	// piece must stay separate segments.
	gap := []StripeRun{
		{Server: 0, ServerOff: 0, BufOff: 0, Length: stripe - 1},
		{Server: 0, ServerOff: stripe, BufOff: stripe, Length: stripe},
	}
	segs, group := mergeSegs(runSegs(gap))
	if len(segs) != 2 {
		t.Fatalf("gapped runs merged into %d segments, want 2", len(segs))
	}
	if group[0] != 0 || group[1] != 1 {
		t.Errorf("gapped group = %v, want [0 1]", group)
	}

	// Exact abutment one stripe in: [64,128) then [128,192).
	abut := []StripeRun{
		{Server: 0, ServerOff: stripe, BufOff: 0, Length: stripe},
		{Server: 0, ServerOff: 2 * stripe, BufOff: stripe, Length: stripe},
	}
	segs, _ = mergeSegs(runSegs(abut))
	if len(segs) != 1 || segs[0].Offset != stripe || segs[0].Length != 2*stripe {
		t.Fatalf("abutting runs gave segments %+v, want one [%d,+%d)", segs, stripe, 2*stripe)
	}

	// The same abutting pair listed in reverse piece order still
	// merges, and each run keeps its own segment index.
	segs, group = mergeSegs(runSegs([]StripeRun{abut[1], abut[0]}))
	if len(segs) != 1 || segs[0].Offset != stripe || segs[0].Length != 2*stripe || group[0] != 0 || group[1] != 0 {
		t.Fatalf("reversed abutting runs gave segments %+v group %v, want one [%d,+%d)", segs, group, stripe, 2*stripe)
	}
}

// TestBoundaryMergedReadBytes reads exactly the shapes the merge
// changes on the wire — stripe-aligned, boundary-straddling, and
// boundary-minus-one — and checks byte-identical results against the
// written payload.
func TestBoundaryMergedReadBytes(t *testing.T) {
	const stripe = int64(64)
	tc := startCluster(t, 2, stripe)
	payload := make([]byte, 8*stripe)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	if err := chio.WriteFull(tc.client, "bm", payload); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("bm")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range []struct{ off, n int64 }{
		{0, 4 * stripe},            // aligned: 2 abutting runs per server merge
		{stripe - 1, 2*stripe + 2}, // straddles three stripes
		{0, 4*stripe - 1},          // last run one byte short of the boundary
		{1, 4 * stripe},            // first run one byte past the boundary
	} {
		got := make([]byte, r.n)
		n, err := f.ReadAt(got, r.off)
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d,+%d): %v", r.off, r.n, err)
		}
		if int64(n) != r.n {
			t.Fatalf("ReadAt(%d,+%d): short read %d", r.off, r.n, n)
		}
		if !bytes.Equal(got, payload[r.off:r.off+r.n]) {
			t.Fatalf("ReadAt(%d,+%d): data mismatch", r.off, r.n)
		}
	}
}
