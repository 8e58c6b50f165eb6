package ceft

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"pario/internal/chio"
	"pario/internal/promtext"
	"pario/internal/pvfs"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// TestClientsSendOnlyListOps pins the single piece-I/O path: the PVFS
// client's ReadAt, WriteAt and ReadvAt and the CEFT client's reads and
// plain writes, each with and without WithoutCoalescing, reach the
// data servers only as list reads and list writes. The servers' own
// request counters (pario_server_requests_total) are the witness.
func TestClientsSendOnlyListOps(t *testing.T) {
	const g, stripe = 2, 64
	reg := telemetry.NewRegistry()
	mgr, err := pvfs.StartMetaServer(pvfs.MetaConfig{Addr: "127.0.0.1:0", NumServers: g, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	var prim, mirr []string
	for i := 0; i < 2*g; i++ {
		ds, err := pvfs.StartDataServer(pvfs.DataServerConfig{
			ID: i, Addr: "127.0.0.1:0", Store: chio.NewMemFS(), Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		if i < g {
			prim = append(prim, ds.Addr())
		} else {
			mirr = append(mirr, ds.Addr())
		}
	}

	data := payload(20 * stripe)
	segs := []chio.Seg{{Off: 5, Len: 3 * stripe}, {Off: 0, Len: 10}, {Off: 17 * stripe, Len: 5 * stripe}}
	// exercise writes data through fs, then reads it back whole, as a
	// single run and as a scatter list, checking every byte.
	exercise := func(fs chio.FileSystem, name string) {
		t.Helper()
		if err := chio.WriteFull(fs, name, data); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		got := make([]byte, len(data))
		if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: ReadAt differs", name)
		}
		if _, err := f.ReadAt(got[:stripe/2], stripe); err != nil || !bytes.Equal(got[:stripe/2], data[stripe:stripe+stripe/2]) {
			t.Fatalf("%s: single-run ReadAt: %v", name, err)
		}
		var total int64
		for _, s := range segs {
			total += s.Len
		}
		dst := make([]byte, total)
		lens, err := chio.ReadvAt(f, segs, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range segs {
			want := data[s.Off:min(s.Off+s.Len, int64(len(data)))]
			if lens[i] != int64(len(want)) || !bytes.Equal(dst[:lens[i]], want) {
				t.Fatalf("%s: ReadvAt segment %d differs", name, i)
			}
			dst = dst[s.Len:]
		}
	}
	for _, coalesce := range []bool{true, false} {
		var opts []rpcpool.Option
		if !coalesce {
			opts = append(opts, rpcpool.WithoutCoalescing())
		}
		pc, err := pvfs.Dial(mgr.Addr(), prim, opts...)
		if err != nil {
			t.Fatal(err)
		}
		exercise(pc, fmt.Sprintf("pvfs-%v", coalesce))
		pc.Close()
		for _, proto := range []WriteProtocol{ClientSync, ClientAsync} {
			o := DefaultOptions()
			o.WriteProtocol = proto
			cc, err := Dial(mgr.Addr(), prim, mirr, o, opts...)
			if err != nil {
				t.Fatal(err)
			}
			exercise(cc, fmt.Sprintf("ceft-%v-%v", coalesce, proto))
			if err := cc.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.Parse(strings.NewReader(page.String()))
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]float64{}
	for _, s := range samples {
		if s.Name == "pario_server_requests_total" {
			ops[s.Label("op")] += s.Value
		}
	}
	for _, legacy := range []string{"piece_read", "piece_readv", "piece_write", "piece_writev"} {
		if ops[legacy] != 0 {
			t.Errorf("in-tree clients sent %v %s requests, want 0", ops[legacy], legacy)
		}
	}
	if ops["list_read"] == 0 || ops["list_write"] == 0 {
		t.Errorf("no list traffic counted: %v", ops)
	}
}
