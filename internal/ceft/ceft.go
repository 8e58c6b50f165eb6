// Package ceft implements CEFT-PVFS, the Cost-Effective Fault-
// Tolerant Parallel Virtual File System of Zhu et al.: a RAID-10
// extension of PVFS. Files are striped across a primary group of data
// servers and every stripe is duplicated onto a mirror group. The two
// read optimizations the paper evaluates are implemented here:
//
//  1. Doubled read parallelism — a read fetches the first half of the
//     requested range from one group and the second half from the
//     other, so all 2G servers serve data for a single large read.
//  2. Hot-spot skipping — the metadata server aggregates the load
//     heartbeats of all data servers; the client skips servers whose
//     load is far above their group's and reads the affected stripes
//     from the mirror partner instead.
//
// The client implements chio.FileSystem, so the parallel BLAST code
// runs over CEFT-PVFS unchanged. Transport behavior (connection
// pooling, per-request deadlines, retries) comes from the shared
// rpcpool options; a sub-read that times out or finds its server down
// falls back to the mirror partner, so one hung server degrades a
// read's latency by at most the configured deadline instead of
// hanging it.
package ceft

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pario/internal/chio"
	"pario/internal/pvfs"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// WriteProtocol selects how writes are duplicated onto the mirror
// group — the four protocols of the CEFT-PVFS write-performance study
// (Zhu et al., ClusterWorld 2003), trading reliability guarantees for
// write latency.
type WriteProtocol int

const (
	// ClientSync: the client writes both groups and waits for both
	// (strongest guarantee, doubles client network traffic).
	ClientSync WriteProtocol = iota
	// ClientAsync: the client writes the primary group synchronously
	// and duplicates to the mirror group in the background; Close
	// flushes.
	ClientAsync
	// ServerSync: the client writes only the primary group; each
	// primary server forwards to its mirror partner and acknowledges
	// after the mirror confirms (halves client traffic, server pays).
	ServerSync
	// ServerAsync: like ServerSync but the primary acknowledges
	// before forwarding; Close flushes the servers' forward queues
	// (fastest, weakest window).
	ServerAsync
)

// String names the protocol.
func (w WriteProtocol) String() string {
	switch w {
	case ClientSync:
		return "client-sync"
	case ClientAsync:
		return "client-async"
	case ServerSync:
		return "server-sync"
	case ServerAsync:
		return "server-async"
	}
	return fmt.Sprintf("WriteProtocol(%d)", int(w))
}

// Options tune the CEFT client's replication semantics. Transport
// behavior (pooling, timeouts, retries) is configured separately with
// the rpcpool options passed to Dial.
type Options struct {
	// DoubledReads enables the split-range doubled-parallelism read
	// path (§4.4 of the paper). Default true.
	DoubledReads bool
	// SkipHotSpots enables hot-spot avoidance (§4.5). Default true.
	SkipHotSpots bool
	// HotFactor: a server is hot when its load exceeds HotFactor x
	// the median load of all servers (and MinHotLoad).
	HotFactor float64
	// MinHotLoad is an absolute load floor below which no server is
	// considered hot, so idle systems never skip.
	MinHotLoad float64
	// LoadCacheTTL bounds how often the client polls the metadata
	// server for load reports.
	LoadCacheTTL time.Duration
	// WriteProtocol selects the duplication protocol. The server-side
	// protocols require the primary data servers to be started with
	// their MirrorAddr configured.
	WriteProtocol WriteProtocol
	// Logger, when non-nil, receives structured hot-spot transition
	// events (server marked hot / cooled down) with trace correlation.
	Logger *slog.Logger
}

// DefaultOptions mirror the paper's configuration.
func DefaultOptions() Options {
	return Options{
		DoubledReads:  true,
		SkipHotSpots:  true,
		HotFactor:     4.0,
		MinHotLoad:    0.75,
		LoadCacheTTL:  250 * time.Millisecond,
		WriteProtocol: ClientSync,
	}
}

// Client is a CEFT-PVFS client over one metadata server, G primary
// data servers and G mirror data servers. Data server IDs are
// 0..G-1 (primary) and G..2G-1 (mirror): the mirror partner of
// primary server i is server G+i.
type Client struct {
	opts    Options
	tracer  *telemetry.Tracer
	ctx     context.Context
	meta    *pvfs.MetaConn
	primary []*pvfs.DataConn
	mirror  []*pvfs.DataConn

	loadMu      sync.Mutex
	loadFetched time.Time
	hotPrimary  []bool
	hotMirror   []bool
	hotEvents   []HotEvent
	reroutes    map[int]int64

	asyncWG  sync.WaitGroup
	asyncMu  sync.Mutex
	asyncErr error

	failMu    sync.Mutex
	failovers int64
	degraded  int64
}

// HotEvent is one structured hot-set transition: the moment the
// client's view of a data server crossed (or re-crossed) the hot
// cutoff. The event stream is the audit trail of the paper's Figures
// 8-9 mechanism — it answers "which server was considered hot, when,
// and against what cutoff".
type HotEvent struct {
	// Time is when the client observed the transition.
	Time time.Time
	// ServerID is the data server (0..G-1 primary, G..2G-1 mirror).
	ServerID int
	// Load is the heartbeat load that triggered the transition.
	Load float64
	// Cutoff is the hot threshold in force (HotFactor x median,
	// floored at MinHotLoad).
	Cutoff float64
	// Hot is true when the server entered the hot set, false when it
	// cooled down and rejoined normal scheduling.
	Hot bool
}

// Audit is a snapshot of the client's hot-spot and fault-handling
// history, consumed by run reports.
type Audit struct {
	// Events are the hot-set transitions in observation order.
	Events []HotEvent
	// Reroutes counts, per skipped server ID, the stripe reads that
	// were redirected to its mirror partner by hot-spot skipping (one
	// count per read per skipped server).
	Reroutes map[int]int64
	// Failovers and DegradedWrites mirror the counters of the same
	// names: fault-driven (not load-driven) mirror activity.
	Failovers      int64
	DegradedWrites int64
	// GroupSize is G, so consumers can name mirror partners.
	GroupSize int
}

// Audit returns a copy of the client's hot-spot audit state.
func (cl *Client) Audit() Audit {
	a := Audit{GroupSize: len(cl.primary)}
	cl.loadMu.Lock()
	a.Events = append([]HotEvent(nil), cl.hotEvents...)
	a.Reroutes = make(map[int]int64, len(cl.reroutes))
	for id, n := range cl.reroutes {
		a.Reroutes[id] = n
	}
	cl.loadMu.Unlock()
	cl.failMu.Lock()
	a.Failovers = cl.failovers
	a.DegradedWrites = cl.degraded
	cl.failMu.Unlock()
	return a
}

// maxHotEvents bounds the audit trail; a long run oscillating around
// the cutoff keeps the most recent transitions.
const maxHotEvents = 4096

// Failovers reports how many sub-reads were served by a mirror
// partner after the preferred server failed (degraded-mode reads).
func (cl *Client) Failovers() int64 {
	cl.failMu.Lock()
	defer cl.failMu.Unlock()
	return cl.failovers
}

func (cl *Client) addFailovers(n int64) {
	if n == 0 {
		return
	}
	cl.failMu.Lock()
	cl.failovers += n
	cl.failMu.Unlock()
}

// DegradedWrites reports how many per-server write runs landed on
// only one member of a mirror pair because the other was unreachable.
// Non-zero means redundancy is reduced until the pair is resynced.
func (cl *Client) DegradedWrites() int64 {
	cl.failMu.Lock()
	defer cl.failMu.Unlock()
	return cl.degraded
}

func (cl *Client) addDegraded(n int64) {
	if n == 0 {
		return
	}
	cl.failMu.Lock()
	cl.degraded += n
	cl.failMu.Unlock()
}

// partners returns, for each chosen connection, its mirror-pair
// counterpart (the degraded-mode fallback).
func (cl *Client) partners(conns []*pvfs.DataConn) []*pvfs.DataConn {
	out := make([]*pvfs.DataConn, len(conns))
	for i, d := range conns {
		if d == cl.primary[i] {
			out[i] = cl.mirror[i]
		} else {
			out[i] = cl.primary[i]
		}
	}
	return out
}

// Dial connects to the manager and both server groups. primaryAddrs
// and mirrorAddrs must have equal length. o carries the CEFT
// replication options; opts carries the transport options shared with
// the plain PVFS backend:
//
//	cl, err := ceft.Dial(mgr, primaries, mirrors, ceft.DefaultOptions(),
//		rpcpool.WithTimeout(2*time.Second),
//		rpcpool.WithPoolSize(8))
func Dial(mgrAddr string, primaryAddrs, mirrorAddrs []string, o Options, opts ...rpcpool.Option) (*Client, error) {
	if len(primaryAddrs) == 0 || len(primaryAddrs) != len(mirrorAddrs) {
		return nil, fmt.Errorf("ceft: need equal non-empty primary and mirror groups (got %d and %d)",
			len(primaryAddrs), len(mirrorAddrs))
	}
	meta, err := pvfs.DialMeta(mgrAddr, opts...)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		opts: o,
		// The root-span tracer is the one the transports share via
		// rpcpool.WithTracer, so application reads and the RPC spans
		// they fan out into land in the same buffer.
		tracer: rpcpool.Apply(opts...).Tracer,
		ctx:    context.Background(),
		meta:   meta,
	}
	for _, a := range primaryAddrs {
		cl.primary = append(cl.primary, pvfs.DialDataLazy(a, opts...))
	}
	for _, a := range mirrorAddrs {
		cl.mirror = append(cl.mirror, pvfs.DialDataLazy(a, opts...))
	}
	// Probe every data server in parallel, but only require one live
	// member per mirror pair: a degraded cluster must stay dialable
	// (reads fail over to the surviving partner).
	g := len(primaryAddrs)
	alive := make([]bool, 2*g)
	var wg sync.WaitGroup
	probe := func(i int, d *pvfs.DataConn) {
		defer wg.Done()
		_, err := d.Ping(cl.ctx)
		alive[i] = err == nil
	}
	for i, d := range cl.primary {
		wg.Add(1)
		go probe(i, d)
	}
	for i, d := range cl.mirror {
		wg.Add(1)
		go probe(g+i, d)
	}
	wg.Wait()
	for i := 0; i < g; i++ {
		if !alive[i] && !alive[g+i] {
			cl.Close()
			return nil, fmt.Errorf("ceft: mirror pair %d unreachable (primary %s, mirror %s): %w",
				i, primaryAddrs[i], mirrorAddrs[i], chio.ErrServerDown)
		}
	}
	cl.hotPrimary = make([]bool, len(cl.primary))
	cl.hotMirror = make([]bool, len(cl.mirror))
	cl.reroutes = make(map[int]int64)
	return cl, nil
}

// BackendName returns "ceft-pvfs".
func (cl *Client) BackendName() string { return "ceft-pvfs" }

// GroupSize returns the number of servers per group.
func (cl *Client) GroupSize() int { return len(cl.primary) }

// WithContext implements chio.ContextBinder: the returned view shares
// this client's connections, hot-set cache, and failover counters, but
// its operations abort when ctx is done.
//
// The view aliases the receiver's synchronization state, so it must
// not be copied further except through WithContext.
func (cl *Client) WithContext(ctx context.Context) chio.FileSystem {
	if ctx == nil {
		ctx = context.Background()
	}
	return &boundClient{Client: cl, ctx: ctx}
}

// boundClient is a context-bound view of a Client. Embedding keeps the
// shared state (pools, hot sets, counters) in one place; only the
// context differs per view.
type boundClient struct {
	*Client
	ctx context.Context
}

func (b *boundClient) Create(name string) (chio.File, error) { return b.Client.create(b.ctx, name) }
func (b *boundClient) Open(name string) (chio.File, error)   { return b.Client.open(b.ctx, name) }
func (b *boundClient) Stat(name string) (chio.FileInfo, error) {
	return b.Client.stat(b.ctx, name)
}
func (b *boundClient) Remove(name string) error { return b.Client.remove(b.ctx, name) }
func (b *boundClient) List(prefix string) ([]chio.FileInfo, error) {
	return b.Client.list(b.ctx, prefix)
}
func (b *boundClient) WithContext(ctx context.Context) chio.FileSystem {
	return b.Client.WithContext(ctx)
}

// Close flushes asynchronous mirror writes and drops all connections.
func (cl *Client) Close() error {
	cl.asyncWG.Wait()
	var first error
	if cl.meta != nil {
		first = cl.meta.Close()
	}
	for _, d := range cl.primary {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, d := range cl.mirror {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// refreshHotSet polls the manager's load map (rate-limited by the
// TTL) and recomputes which servers are hot. A server is hot when its
// load exceeds HotFactor x the median of all reported loads and the
// MinHotLoad floor, and its mirror partner is not itself hot (the
// paper's constraint: skipping works as long as no mirroring pair is
// entirely hot).
func (cl *Client) refreshHotSet(ctx context.Context) {
	cl.loadMu.Lock()
	defer cl.loadMu.Unlock()
	if time.Since(cl.loadFetched) < cl.opts.LoadCacheTTL {
		return
	}
	cl.loadFetched = time.Now()
	loads, err := cl.meta.LoadQuery(ctx)
	if err != nil {
		return // keep the previous hot set
	}
	g := len(cl.primary)
	all := make([]float64, 0, len(loads))
	for _, v := range loads {
		all = append(all, v)
	}
	if len(all) == 0 {
		return
	}
	sort.Float64s(all)
	median := all[len(all)/2]
	cutoff := cl.opts.HotFactor * median
	if cutoff < cl.opts.MinHotLoad {
		cutoff = cl.opts.MinHotLoad
	}
	isHot := func(id int) bool {
		v, ok := loads[id]
		return ok && v > cutoff
	}
	for i := 0; i < g; i++ {
		hp, hm := isHot(i), isHot(g+i)
		// Never mark both sides of a pair: prefer skipping the hotter.
		if hp && hm {
			if loads[i] >= loads[g+i] {
				hm = false
			} else {
				hp = false
			}
		}
		if hp != cl.hotPrimary[i] {
			cl.recordHotEvent(ctx, i, loads[i], cutoff, hp)
		}
		if hm != cl.hotMirror[i] {
			cl.recordHotEvent(ctx, g+i, loads[g+i], cutoff, hm)
		}
		cl.hotPrimary[i] = hp
		cl.hotMirror[i] = hm
	}
}

// recordHotEvent appends one hot-set transition to the audit trail and
// logs it. Callers hold loadMu. ctx carries the span of the read that
// triggered the refresh, so the log line names the trace it belongs to.
func (cl *Client) recordHotEvent(ctx context.Context, id int, load, cutoff float64, hot bool) {
	cl.hotEvents = append(cl.hotEvents, HotEvent{
		Time: time.Now(), ServerID: id, Load: load, Cutoff: cutoff, Hot: hot,
	})
	if n := len(cl.hotEvents) - maxHotEvents; n > 0 {
		cl.hotEvents = append(cl.hotEvents[:0], cl.hotEvents[n:]...)
	}
	if cl.opts.Logger != nil {
		msg := "hot-spot marked"
		if !hot {
			msg = "hot-spot cleared"
		}
		cl.opts.Logger.Info(msg, append([]any{
			"server", id, "load", load, "cutoff", cutoff,
		}, telemetry.TraceAttrs(ctx)...)...)
	}
}

// pickConns returns, for each server index, the connection to use
// when the preferred group is primary (or mirror), honoring hot-spot
// skipping. skipped reports how many servers were redirected.
func (cl *Client) pickConns(ctx context.Context, preferPrimary bool) (conns []*pvfs.DataConn, skipped int) {
	g := len(cl.primary)
	conns = make([]*pvfs.DataConn, g)
	if cl.opts.SkipHotSpots {
		cl.refreshHotSet(ctx)
	}
	cl.loadMu.Lock()
	defer cl.loadMu.Unlock()
	for i := 0; i < g; i++ {
		usePrimary := preferPrimary
		if cl.opts.SkipHotSpots {
			if usePrimary && cl.hotPrimary[i] {
				usePrimary = false
				skipped++
				cl.reroutes[i]++
			} else if !usePrimary && cl.hotMirror[i] {
				usePrimary = true
				skipped++
				cl.reroutes[g+i]++
			}
		}
		if usePrimary {
			conns[i] = cl.primary[i]
		} else {
			conns[i] = cl.mirror[i]
		}
	}
	return conns, skipped
}

// Create implements chio.FileSystem.
func (cl *Client) Create(name string) (chio.File, error) { return cl.create(cl.ctx, name) }

func (cl *Client) create(ctx context.Context, name string) (chio.File, error) {
	m, err := cl.meta.Create(ctx, name)
	if err != nil {
		return nil, err
	}
	// Clear stale pieces on both groups.
	g := len(cl.primary)
	errs := make([]error, 2*g)
	var wg sync.WaitGroup
	clear := func(idx int, d *pvfs.DataConn) {
		defer wg.Done()
		errs[idx] = d.RemovePiece(ctx, m.Handle)
	}
	for i, d := range cl.primary {
		wg.Add(1)
		go clear(i, d)
	}
	for i, d := range cl.mirror {
		wg.Add(1)
		go clear(g+i, d)
	}
	wg.Wait()
	// Tolerate a clear failure when the pair partner was cleared: on a
	// degraded cluster the dead member holds no piece to go stale (it
	// must be resynced before rejoining anyway).
	var deg int64
	for i := 0; i < g; i++ {
		if errs[i] != nil && errs[g+i] != nil {
			return nil, errs[i]
		}
		if errs[i] != nil || errs[g+i] != nil {
			deg++
		}
	}
	cl.addDegraded(deg)
	return &file{cl: cl, ctx: ctx, meta: m}, nil
}

// Open implements chio.FileSystem.
func (cl *Client) Open(name string) (chio.File, error) { return cl.open(cl.ctx, name) }

func (cl *Client) open(ctx context.Context, name string) (chio.File, error) {
	m, err := cl.meta.Lookup(ctx, name)
	if err != nil {
		return nil, err
	}
	return &file{cl: cl, ctx: ctx, meta: m}, nil
}

// Stat implements chio.FileSystem.
func (cl *Client) Stat(name string) (chio.FileInfo, error) { return cl.stat(cl.ctx, name) }

func (cl *Client) stat(ctx context.Context, name string) (chio.FileInfo, error) {
	m, err := cl.meta.Stat(ctx, name)
	if err != nil {
		return chio.FileInfo{}, err
	}
	return chio.FileInfo{Name: name, Size: m.Size}, nil
}

// Remove implements chio.FileSystem.
func (cl *Client) Remove(name string) error { return cl.remove(cl.ctx, name) }

func (cl *Client) remove(ctx context.Context, name string) error {
	m, err := cl.meta.Remove(ctx, name)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	rm := func(d *pvfs.DataConn) {
		defer wg.Done()
		d.RemovePiece(ctx, m.Handle)
	}
	for _, d := range cl.primary {
		wg.Add(1)
		go rm(d)
	}
	for _, d := range cl.mirror {
		wg.Add(1)
		go rm(d)
	}
	wg.Wait()
	return nil
}

// List implements chio.FileSystem.
func (cl *Client) List(prefix string) ([]chio.FileInfo, error) { return cl.list(cl.ctx, prefix) }

func (cl *Client) list(ctx context.Context, prefix string) ([]chio.FileInfo, error) {
	metas, err := cl.meta.List(ctx, prefix)
	if err != nil {
		return nil, err
	}
	out := make([]chio.FileInfo, 0, len(metas))
	for _, m := range metas {
		out = append(out, chio.FileInfo{Name: m.Name, Size: m.Size})
	}
	return out, nil
}

func (cl *Client) recordAsyncErr(err error) {
	if err == nil {
		return
	}
	cl.asyncMu.Lock()
	if cl.asyncErr == nil {
		cl.asyncErr = err
	}
	cl.asyncMu.Unlock()
}

// AsyncErr returns the first error from background mirror writes, if
// any (only relevant with the ClientAsync protocol).
func (cl *Client) AsyncErr() error {
	cl.asyncMu.Lock()
	defer cl.asyncMu.Unlock()
	return cl.asyncErr
}

// file is an open CEFT file handle.
type file struct {
	cl     *Client
	ctx    context.Context
	mu     sync.Mutex
	meta   pvfs.Meta
	off    int64
	closed bool
}

func (f *file) Name() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meta.Name
}

var errFileClosed = fmt.Errorf("ceft: file already closed")

// handle returns the file's metadata, or an error once closed.
func (f *file) handle() (pvfs.Meta, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return pvfs.Meta{}, errFileClosed
	}
	return f.meta, nil
}

func (f *file) refreshSize(m *pvfs.Meta) error {
	fresh, err := f.cl.meta.Stat(f.ctx, m.Name)
	if err != nil {
		return err
	}
	m.Size = fresh.Size
	f.mu.Lock()
	if !f.closed {
		f.meta.Size = fresh.Size
	}
	f.mu.Unlock()
	return nil
}

// runsWriter issues all of one server's stripe runs. Plain writes
// coalesce into one list RPC; the server-side duplication
// protocols stay one RPC per run because the dup ops carry a single
// (offset, data) pair on the wire.
type runsWriter func(ctx context.Context, d *pvfs.DataConn, handle uint64, runs []pvfs.StripeRun, p []byte) error

func plainWrite(ctx context.Context, d *pvfs.DataConn, handle uint64, runs []pvfs.StripeRun, p []byte) error {
	return d.WriteRuns(ctx, handle, runs, p)
}

func dupSyncWrite(ctx context.Context, d *pvfs.DataConn, handle uint64, runs []pvfs.StripeRun, p []byte) error {
	for _, r := range runs {
		if err := d.WritePieceDup(ctx, handle, r.ServerOff, p[r.BufOff:r.BufOff+r.Length], true); err != nil {
			return err
		}
	}
	return nil
}

func dupAsyncWrite(ctx context.Context, d *pvfs.DataConn, handle uint64, runs []pvfs.StripeRun, p []byte) error {
	for _, r := range runs {
		if err := d.WritePieceDup(ctx, handle, r.ServerOff, p[r.BufOff:r.BufOff+r.Length], false); err != nil {
			return err
		}
	}
	return nil
}

// writeRunsPerServer issues the per-server runs of one group using
// write, returning one error slot per server (nil where the server
// took all of its runs, or had none).
func writeRunsPerServer(ctx context.Context, conns []*pvfs.DataConn, runs [][]pvfs.StripeRun, handle uint64, p []byte, write runsWriter) []error {
	errs := make([]error, len(conns))
	// Degraded mode needs every server's outcome, so each is kept in
	// errs and none is returned to EachServer.
	_ = pvfs.EachServer(runs, func(server int, list []pvfs.StripeRun) error {
		errs[server] = write(ctx, conns[server], handle, list, p)
		return nil
	})
	return errs
}

// writeRuns issues the per-server runs of one group using write and
// returns the first per-server error.
func writeRuns(ctx context.Context, conns []*pvfs.DataConn, runs [][]pvfs.StripeRun, handle uint64, p []byte, write runsWriter) error {
	for _, err := range writeRunsPerServer(ctx, conns, runs, handle, p, write) {
		if err != nil {
			return err
		}
	}
	return nil
}

// degradeWrites retries each failed primary server's runs as plain
// writes on its mirror partner (RAID-10 degraded mode: a write
// survives as long as one member of every pair takes it). Only
// transport-level failures — the primary dead or hung — are degraded;
// an application-level refusal (e.g. a server-side protocol without
// mirror configuration) propagates, because silently dropping to one
// copy there would mask a misconfiguration rather than a fault. A
// server whose mirror partner is also down keeps its original error.
func (cl *Client) degradeWrites(ctx context.Context, errs []error, runs [][]pvfs.StripeRun, handle uint64, p []byte) error {
	for i, orig := range errs {
		if orig == nil {
			continue
		}
		if ctx.Err() != nil {
			return orig
		}
		if !errors.Is(orig, chio.ErrServerDown) && !errors.Is(orig, chio.ErrTimeout) {
			return orig
		}
		if err := cl.mirror[i].WriteRuns(ctx, handle, runs[i], p); err != nil {
			return orig
		}
		cl.addDegraded(1)
	}
	return nil
}

// WriteAt duplicates the write onto both groups (RAID-10) using the
// configured duplication protocol. The root span ties the per-server
// duplication RPCs into one trace for this application write.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	ctx, sp := f.cl.tracer.Start(f.ctx, "write")
	n, err := f.writeAt(ctx, p, off)
	sp.AddBytes(int64(n))
	sp.Finish(err)
	return n, err
}

func (f *file) writeAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ceft: negative write offset")
	}
	m, err := f.handle()
	if err != nil {
		return 0, err
	}
	n := int64(len(p))
	if n == 0 {
		return 0, nil
	}
	runs := pvfs.Decompose(off, n, m.StripeSize, len(f.cl.primary))
	switch f.cl.opts.WriteProtocol {
	case ClientSync:
		// Both groups are written concurrently; a server failure is
		// tolerated as long as its pair partner took the data (RAID-10
		// degraded mode — redundancy is reduced, availability is not).
		var wg sync.WaitGroup
		var perrs, merrs []error
		wg.Add(2)
		go func() { defer wg.Done(); perrs = writeRunsPerServer(ctx, f.cl.primary, runs, m.Handle, p, plainWrite) }()
		go func() { defer wg.Done(); merrs = writeRunsPerServer(ctx, f.cl.mirror, runs, m.Handle, p, plainWrite) }()
		wg.Wait()
		var deg int64
		for i := range perrs {
			if perrs[i] != nil && merrs[i] != nil {
				return 0, perrs[i]
			}
			if perrs[i] != nil || merrs[i] != nil {
				deg++
			}
		}
		f.cl.addDegraded(deg)
	case ClientAsync:
		perrs := writeRunsPerServer(ctx, f.cl.primary, runs, m.Handle, p, plainWrite)
		// A dead primary degrades to a synchronous write on its mirror
		// partner (the background duplicate below rewrites the same
		// bytes there, which is harmless).
		if err := f.cl.degradeWrites(ctx, perrs, runs, m.Handle, p); err != nil {
			return 0, err
		}
		dup := append([]byte(nil), p...)
		f.cl.asyncWG.Add(1)
		go func() {
			defer f.cl.asyncWG.Done()
			// The mirror duplicate outlives the caller's request
			// context by design (the protocol's weaker guarantee), so
			// it is not bound to f.ctx.
			f.cl.recordAsyncErr(writeRuns(context.Background(), f.cl.mirror, runs, m.Handle, dup, plainWrite))
		}()
	case ServerSync:
		perrs := writeRunsPerServer(ctx, f.cl.primary, runs, m.Handle, p, dupSyncWrite)
		// A dead primary degrades to plain writes on its mirror; an
		// alive primary's refusal (forward failure, missing mirror
		// config) still propagates.
		if err := f.cl.degradeWrites(ctx, perrs, runs, m.Handle, p); err != nil {
			return 0, err
		}
	case ServerAsync:
		perrs := writeRunsPerServer(ctx, f.cl.primary, runs, m.Handle, p, dupAsyncWrite)
		if err := f.cl.degradeWrites(ctx, perrs, runs, m.Handle, p); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("ceft: unknown write protocol %v", f.cl.opts.WriteProtocol)
	}
	// The size RPC is needed only when the write extends the file: the
	// cached size can lag the manager's but never exceeds it, so
	// off+n <= cached size proves the manager already records it.
	if off+n > m.Size {
		if err := f.cl.meta.GrowSize(ctx, m.Name, off+n); err != nil {
			return 0, err
		}
		f.mu.Lock()
		if !f.closed && off+n > f.meta.Size {
			f.meta.Size = off + n
		}
		f.mu.Unlock()
	}
	return int(n), nil
}

// readRuns issues per-server read runs against the chosen conns, each
// server's runs in one list RPC. fallback, when non-nil, provides each
// server's mirror partner: when the list read fails — including by
// exhausting the transport's deadline/retry budget with
// chio.ErrTimeout or chio.ErrServerDown — each of that server's runs
// is retried individually on the mirror, which is CEFT's RAID-10
// degraded mode (a dead or hung server's data remains available on its
// mirror, and a partial failure degrades per run rather than failing
// the whole request).
func readRuns(ctx context.Context, conns, fallback []*pvfs.DataConn, runs [][]pvfs.StripeRun, handle uint64, p []byte, failovers *int64) error {
	var failedOver atomic.Int64
	err := pvfs.EachServer(runs, func(server int, list []pvfs.StripeRun) error {
		d := conns[server]
		err := d.ReadRuns(ctx, handle, list, p)
		if err == nil || ctx.Err() != nil || fallback == nil || fallback[server] == nil || fallback[server] == d {
			return err
		}
		for _, r := range list {
			failedOver.Add(1)
			if ferr := fallback[server].ReadRun(ctx, handle, r, p); ferr != nil {
				return ferr
			}
		}
		return nil
	})
	if failovers != nil {
		*failovers += failedOver.Load()
	}
	return err
}

// ReadAt serves the read with doubled parallelism and hot-spot
// skipping per the client options.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ceft: negative read offset")
	}
	m, err := f.handle()
	if err != nil {
		return 0, err
	}
	want := int64(len(p))
	if off+want > m.Size {
		if err := f.refreshSize(&m); err != nil {
			return 0, err
		}
	}
	if off >= m.Size {
		return 0, io.EOF
	}
	n := want
	var outErr error
	if off+n > m.Size {
		n = m.Size - off
		outErr = io.EOF
	}
	// No up-front zeroing pass: the runs tile [0, n) of p exactly, and
	// the list read path zero-fills each run's hole/EOF tail.
	// The root span ties the per-server (and failover) RPC spans below
	// into one trace for this application read.
	ctx, sp := f.cl.tracer.Start(f.ctx, "read")
	g := len(f.cl.primary)
	if !f.cl.opts.DoubledReads {
		conns, _ := f.cl.pickConns(ctx, true)
		runs := pvfs.Decompose(off, n, m.StripeSize, g)
		var fo int64
		if err := readRuns(ctx, conns, f.cl.partners(conns), runs, m.Handle, p[:n], &fo); err != nil {
			sp.Finish(err)
			return 0, err
		}
		f.cl.addFailovers(fo)
		sp.AddBytes(n)
		sp.Finish(nil)
		return int(n), outErr
	}
	// Doubled parallelism: first half from the primary group, second
	// half from the mirror group, concurrently (2G servers active).
	half := n / 2
	primConns, _ := f.cl.pickConns(ctx, true)
	mirrConns, _ := f.cl.pickConns(ctx, false)
	var wg sync.WaitGroup
	var err1, err2 error
	if half > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs := pvfs.Decompose(off, half, m.StripeSize, g)
			var fo int64
			err1 = readRuns(ctx, primConns, f.cl.partners(primConns), runs, m.Handle, p[:half], &fo)
			f.cl.addFailovers(fo)
		}()
	}
	if n-half > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs := pvfs.Decompose(off+half, n-half, m.StripeSize, g)
			var fo int64
			err2 = readRuns(ctx, mirrConns, f.cl.partners(mirrConns), runs, m.Handle, p[half:n], &fo)
			f.cl.addFailovers(fo)
		}()
	}
	wg.Wait()
	if err1 != nil {
		sp.Finish(err1)
		return 0, err1
	}
	if err2 != nil {
		sp.Finish(err2)
		return 0, err2
	}
	sp.AddBytes(n)
	sp.Finish(nil)
	return int(n), outErr
}

// ReadvAt implements chio.VectorReaderAt: the whole segment list is
// decomposed into per-server stripe runs and served with one list-I/O
// RPC per data server, with hot-spot skipping applied to the
// connection choice and the per-run mirror fallback preserved — a
// server that fails its list read degrades run by run onto its
// partner, exactly like the contiguous path. Doubled-group reads do
// not apply here (the list already fans out to every server); the
// preferred group serves it.
func (f *file) ReadvAt(segs []chio.Seg, dst []byte) ([]int64, error) {
	m, err := f.handle()
	if err != nil {
		return nil, err
	}
	if pvfs.SegEnd(segs) > m.Size {
		if err := f.refreshSize(&m); err != nil {
			return nil, err
		}
	}
	perServer, lens, served, err := pvfs.DecomposeSegs(segs, dst, m.Size, m.StripeSize, len(f.cl.primary))
	if err != nil {
		return nil, err
	}
	ctx, sp := f.cl.tracer.Start(f.ctx, "readv")
	conns, _ := f.cl.pickConns(ctx, true)
	var fo int64
	if err := readRuns(ctx, conns, f.cl.partners(conns), perServer, m.Handle, dst, &fo); err != nil {
		sp.Finish(err)
		return nil, err
	}
	f.cl.addFailovers(fo)
	sp.AddBytes(served)
	sp.Finish(nil)
	return lens, nil
}

func (f *file) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.off
	f.mu.Unlock()
	n, err := f.ReadAt(p, off)
	f.mu.Lock()
	f.off = off + int64(n)
	f.mu.Unlock()
	return n, err
}

func (f *file) Write(p []byte) (int, error) {
	f.mu.Lock()
	off := f.off
	f.mu.Unlock()
	n, err := f.WriteAt(p, off)
	f.mu.Lock()
	f.off = off + int64(n)
	f.mu.Unlock()
	return n, err
}

func (f *file) Seek(offset int64, whence int) (int64, error) {
	m, err := f.handle()
	if err != nil {
		return 0, err
	}
	if whence == io.SeekEnd {
		if err := f.refreshSize(&m); err != nil {
			return 0, err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var next int64
	switch whence {
	case io.SeekStart:
		next = offset
	case io.SeekCurrent:
		next = f.off + offset
	case io.SeekEnd:
		next = m.Size + offset
	default:
		return 0, fmt.Errorf("ceft: bad whence %d", whence)
	}
	if next < 0 {
		return 0, fmt.Errorf("ceft: negative seek position")
	}
	f.off = next
	return next, nil
}

// Close settles the configured duplication protocol (client-async
// waits for the client's background mirror writes; server-async asks
// every primary server to flush its forward queue) and invalidates the
// handle. A second Close is a safe no-op.
func (f *file) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.meta = pvfs.Meta{}
	f.mu.Unlock()
	switch f.cl.opts.WriteProtocol {
	case ClientAsync:
		f.cl.asyncWG.Wait()
		return f.cl.AsyncErr()
	case ServerAsync:
		var first error
		for _, d := range f.cl.primary {
			if err := d.FlushForwards(f.ctx); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return nil
}
