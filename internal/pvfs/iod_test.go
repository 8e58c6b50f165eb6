package pvfs

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"pario/internal/chio"
)

// TestMalformedRequestsAnswered sends piece requests no piece can
// serve — negative offsets or lengths, ends past the largest int64 —
// in every read and write op. Each must get an error response, and the
// same server must still answer Ping afterwards. A read asking for far
// more than the piece holds is not malformed: it is clamped to the
// piece and served like any read past EOF.
func TestMalformedRequestsAnswered(t *testing.T) {
	ds, _ := startIod(t, 0, "")
	d, err := DialData(ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const handle = 5
	content := []byte("piece bytes")
	if err := d.WritePiece(bg, handle, 0, content); err != nil {
		t.Fatal(err)
	}
	huge := int64(1) << 62
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"piece_read negative length", Request{Op: OpPieceRead, Length: -1}},
		{"piece_read negative offset", Request{Op: OpPieceRead, Offset: -1, Length: 4}},
		{"piece_read end overflows", Request{Op: OpPieceRead, Offset: huge, Length: math.MaxInt64 - huge + 1}},
		{"piece_readv negative segment", Request{Op: OpPieceReadv, Segs: []Seg{{0, 4}, {8, -4}}}},
		{"list_read negative offset", Request{Op: OpListRead, Segs: []Seg{{-8, 4}}}},
		{"list_read end overflows", Request{Op: OpListRead, Segs: []Seg{{huge, huge}}}},
		{"list_read total overflows", Request{Op: OpListRead, Segs: []Seg{{0, huge}, {0, huge}}}},
		{"piece_write negative offset", Request{Op: OpPieceWrite, Offset: -1, Data: []byte("x")}},
		{"piece_writev negative segment", Request{Op: OpPieceWritev, Segs: []Seg{{0, 5}, {10, -1}}, Data: []byte("abcd")}},
		{"list_write negative segment", Request{Op: OpListWrite, Segs: []Seg{{0, -1}}}},
		{"list_write end overflows", Request{Op: OpListWrite, Segs: []Seg{{math.MaxInt64, 1}}, Data: []byte("x")}},
		{"dup write negative offset", Request{Op: OpPieceWriteDupSync, Offset: -3, Data: []byte("x")}},
	} {
		req := tc.req
		req.Handle = handle
		if _, err := d.call(bg, &req); err == nil {
			t.Errorf("%s: accepted, want an error response", tc.name)
		}
		if _, err := d.Ping(bg); err != nil {
			t.Fatalf("%s: server stopped answering: %v", tc.name, err)
		}
	}

	// Over-long reads are clamped to the piece, not refused.
	for _, tc := range []struct {
		req  Request
		want []byte
	}{
		{Request{Op: OpPieceRead, Length: math.MaxInt64}, content},
		{Request{Op: OpListRead, Segs: []Seg{{0, huge}}}, content},
		{Request{Op: OpPieceReadv, Segs: []Seg{{6, huge}}}, content[6:]},
	} {
		req := tc.req
		req.Handle = handle
		resp, err := d.call(bg, &req)
		if err != nil {
			t.Fatalf("over-long %s: %v", req.Op, err)
		}
		if !bytes.Equal(resp.Data, tc.want) {
			t.Errorf("over-long %s: served %q, want %q", req.Op, resp.Data, tc.want)
		}
	}
	if _, err := d.Ping(bg); err != nil {
		t.Fatalf("server stopped answering: %v", err)
	}

	// Nothing above changed the piece.
	resp, err := d.call(bg, &Request{Op: OpListRead, Handle: handle, Segs: []Seg{{0, 64}}})
	if err != nil || !bytes.Equal(resp.Data, content) {
		t.Fatalf("piece after malformed requests: %q, %v", resp.Data, err)
	}
}

// FuzzListRead feeds arbitrary segment lists — unsorted, overlapping,
// past EOF, negative, huge — to the data server's read handler through
// each read op, against a shadow copy of the piece. The input's first
// byte picks the op (and whether the piece exists at all); the rest is
// a run of signed varint (offset, length) pairs. The server must refuse
// exactly the lists no piece can serve and answer every other one with
// the shadow's bytes, concatenated in request order, and each
// segment's served length.
func FuzzListRead(f *testing.F) {
	store, shadow, handle := newFuzzPiece(f)
	ds, err := StartDataServer(DataServerConfig{Addr: "127.0.0.1:0", Store: store})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ds.Close() })
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		ops := []Op{OpPieceRead, OpPieceReadv, OpListRead}
		req := &Request{Op: ops[int(in[0])%len(ops)], Handle: handle}
		piece := shadow
		if in[0]/byte(len(ops))%2 == 1 {
			req.Handle, piece = handle+1, nil // never written: all holes
		}
		for rest := in[1:]; len(req.Segs) < 64; {
			off, n := binary.Varint(rest)
			if n <= 0 {
				break
			}
			length, m := binary.Varint(rest[n:])
			if m <= 0 {
				break
			}
			req.Segs = append(req.Segs, Seg{Offset: off, Length: length})
			rest = rest[n+m:]
		}
		if req.Op == OpPieceRead {
			if len(req.Segs) > 0 {
				req.Offset, req.Length = req.Segs[0].Offset, req.Segs[0].Length
			}
			req.Segs = nil
		}
		segs := pieceSegs(req)
		valid := true
		var total int64
		for _, s := range segs {
			if s.Offset < 0 || s.Length < 0 || s.Length > math.MaxInt64-s.Offset || s.Length > math.MaxInt64-total {
				valid = false
				break
			}
			total += s.Length
		}

		resp := ds.handle(req)
		if !valid {
			if resp.OK {
				t.Fatalf("%s %+v: accepted a malformed list", req.Op, segs)
			}
			return
		}
		if !resp.OK {
			t.Fatalf("%s %+v: refused: %s", req.Op, segs, resp.Err)
		}
		if len(resp.SegLens) != len(segs) {
			t.Fatalf("%s %+v: %d segment lengths", req.Op, segs, len(resp.SegLens))
		}
		var want []byte
		size := int64(len(piece))
		for i, s := range segs {
			n := max(0, min(s.Length, size-s.Offset))
			if resp.SegLens[i] != n {
				t.Fatalf("%s %+v: segment %d served %d, want %d", req.Op, segs, i, resp.SegLens[i], n)
			}
			if n > 0 {
				want = append(want, piece[s.Offset:s.Offset+n]...)
			}
		}
		if !bytes.Equal(resp.Data, want) {
			t.Fatalf("%s %+v: data differs from the shadow", req.Op, segs)
		}
	})
}

// newFuzzPiece stores a 300-byte piece with a zeroed hole in its middle
// and returns the store, the shadow copy and the piece's handle.
func newFuzzPiece(f *testing.F) (store *chio.MemFS, shadow []byte, handle uint64) {
	handle = 0x5eed
	shadow = make([]byte, 300)
	for i := range shadow {
		if i < 100 || i >= 200 {
			shadow[i] = byte(i*7 + 1)
		}
	}
	store = chio.NewMemFS()
	w, err := store.Create(pieceName(handle))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.WriteAt(shadow[:100], 0); err != nil {
		f.Fatal(err)
	}
	if _, err := w.WriteAt(shadow[200:], 200); err != nil {
		f.Fatal(err)
	}
	return store, shadow, handle
}
