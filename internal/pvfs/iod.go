package pvfs

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pario/internal/chio"
	"pario/internal/telemetry"
)

// DataServer is a PVFS I/O daemon (iod): it stores the stripe pieces
// of files on a local chio backend and serves positional reads and
// writes. It also tracks a load metric and, when configured with a
// manager address, heartbeats it to the metadata server — the
// mechanism CEFT-PVFS uses for hot-spot detection.
type DataServer struct {
	ID      int
	store   chio.FileSystem
	ln      net.Listener
	wg      sync.WaitGroup
	tracker *connTracker
	closed  chan struct{}
	started time.Time
	tel     *serverMetrics

	// Throttle emulates a slow or overloaded disk: each served byte
	// costs this much time. Zero means full speed. Guarded by
	// atomics; expressed in nanoseconds per KiB to stay integral.
	throttleNsPerKiB int64

	// load accounting: inflight is the instantaneous request count;
	// a sampler goroutine folds it into loadEWMA (the exported load
	// metric, a smoothed queue-depth estimate).
	inflight int64
	loadEWMA uint64 // math.Float64bits of the smoothed load

	// files guards piece creation so concurrent writers to the same
	// piece do not race Create/Open.
	filesMu sync.Mutex

	// heartbeat
	mgrAddr  string
	hbPeriod time.Duration
	hbMu     sync.Mutex
	hbConn   *conn

	// mirror forwarding (CEFT server-side duplication protocols)
	mirrorAddr string
	fwdMu      sync.Mutex
	fwdConn    *conn
	fwdQueue   chan fwdItem
	fwdOnce    sync.Once
	fwdErrMu   sync.Mutex
	fwdErr     error
}

// fwdItem is one queued asynchronous mirror forward; flush sentinels
// carry a done channel instead of a request.
type fwdItem struct {
	req  *Request
	done chan error
}

// DataServerConfig configures StartDataServer.
type DataServerConfig struct {
	// ID is the server's index within the file system's server list.
	ID int
	// Addr is the TCP listen address ("127.0.0.1:0" for tests).
	Addr string
	// Store is the backing storage for stripe pieces (a local
	// directory in production, MemFS in tests).
	Store chio.FileSystem
	// MgrAddr, if non-empty, enables load heartbeats to the metadata
	// server at this address.
	MgrAddr string
	// HeartbeatPeriod defaults to 250ms.
	HeartbeatPeriod time.Duration
	// MirrorAddr, if non-empty, is this server's mirror partner and
	// enables the server-side duplication write ops.
	MirrorAddr string
	// Telemetry, if non-nil, receives this server's request counters,
	// latency histograms, and load gauges.
	Telemetry *telemetry.Registry
	// Tracer, if non-nil, records a server-side span for every request
	// that arrives stamped with a trace identity.
	Tracer *telemetry.Tracer
}

// StartDataServer launches an iod and returns once it is listening.
func StartDataServer(cfg DataServerConfig) (*DataServer, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("pvfs: data server needs a store")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 250 * time.Millisecond
	}
	ds := &DataServer{
		ID:         cfg.ID,
		store:      cfg.Store,
		ln:         ln,
		closed:     make(chan struct{}),
		started:    time.Now(),
		mgrAddr:    cfg.MgrAddr,
		hbPeriod:   cfg.HeartbeatPeriod,
		mirrorAddr: cfg.MirrorAddr,
		fwdQueue:   make(chan fwdItem, 256),
		tracker:    newConnTracker(),
	}
	ds.tel = newServerMetrics(cfg.Telemetry, cfg.Tracer, fmt.Sprintf("iod%d", cfg.ID))
	ds.tel.enableIODGauges(cfg.Telemetry)
	go acceptLoop(ln, ds.handle, &ds.wg, ds.tracker)
	go ds.sampleLoop()
	if ds.mgrAddr != "" {
		go ds.heartbeatLoop()
	}
	return ds, nil
}

// sampleLoop periodically samples the in-flight request count into
// the smoothed load metric. Sampling (rather than recording at
// request arrival) makes a continuously-busy server report load ~= 1
// and a server with a backlog report its queue depth, while idle
// servers decay toward 0.
func (ds *DataServer) sampleLoop() {
	period := ds.hbPeriod / 4
	if period <= 0 {
		period = 20 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	const alpha = 0.3
	lastBytes := ds.tel.servedBytes()
	lastTime := time.Now()
	for {
		select {
		case <-ds.closed:
			return
		case <-t.C:
			depth := float64(atomic.LoadInt64(&ds.inflight))
			for {
				old := atomic.LoadUint64(&ds.loadEWMA)
				next := float64ToBits((1-alpha)*float64FromBits(old) + alpha*depth)
				if atomic.CompareAndSwapUint64(&ds.loadEWMA, old, next) {
					break
				}
			}
			if ds.tel != nil {
				now := time.Now()
				bytes := ds.tel.servedBytes()
				rate := 0.0
				if dt := now.Sub(lastTime).Seconds(); dt > 0 {
					rate = float64(bytes-lastBytes) / dt
				}
				lastBytes, lastTime = bytes, now
				ds.tel.sample(atomic.LoadInt64(&ds.inflight), ds.Load(), rate)
			}
		}
	}
}

// Addr returns the server's listen address.
func (ds *DataServer) Addr() string { return ds.ln.Addr().String() }

// SetThrottle sets an artificial per-byte service delay emulating a
// loaded disk (d per KiB served). Used by the hot-spot experiments.
func (ds *DataServer) SetThrottle(dPerKiB time.Duration) {
	atomic.StoreInt64(&ds.throttleNsPerKiB, int64(dPerKiB))
}

// Load returns the current smoothed load metric: an exponentially
// weighted average of the sampled in-flight request count, a cheap
// proxy for disk queue depth.
func (ds *DataServer) Load() float64 {
	return float64FromBits(atomic.LoadUint64(&ds.loadEWMA))
}

func (ds *DataServer) recordArrival() { atomic.AddInt64(&ds.inflight, 1) }

func (ds *DataServer) recordDone() { atomic.AddInt64(&ds.inflight, -1) }

func pieceName(handle uint64) string { return fmt.Sprintf("pieces/%016x", handle) }

func (ds *DataServer) handle(req *Request) *Response {
	ds.recordArrival()
	defer ds.recordDone()
	start := time.Now()
	if t := atomic.LoadInt64(&ds.throttleNsPerKiB); t > 0 {
		kib := (throttleBytes(req) + 1023) / 1024
		wait := time.Duration(t * kib)
		time.Sleep(wait)
		ds.tel.observeQueueWait(wait)
	}
	resp := ds.dispatch(req)
	ds.tel.observe(req, resp, start, time.Since(start))
	return resp
}

// throttleBytes is what the emulated disk charges for req: the bytes
// a write carries or a read asks for. A malformed read list is charged
// nothing, since it is refused without touching the piece.
func throttleBytes(req *Request) int64 {
	switch req.Op {
	case OpPieceWrite, OpPieceWritev, OpListWrite:
		return int64(len(req.Data))
	case OpPieceRead, OpPieceReadv, OpListRead:
		segs := pieceSegs(req)
		if checkSegs(segs) != nil {
			return 0
		}
		var n int64
		for _, s := range segs {
			n += s.Length
		}
		return n
	}
	return req.Length
}

// dispatch routes one decoded request to its op handler. Every piece
// read and write, whatever its wire op, lands on the list handler of
// its direction.
func (ds *DataServer) dispatch(req *Request) *Response {
	switch req.Op {
	case OpPieceRead, OpPieceReadv, OpListRead:
		return ds.handleListRead(req)
	case OpPieceWrite, OpPieceWritev, OpListWrite:
		return ds.handleListWrite(req)
	case OpPieceRemove:
		err := ds.store.Remove(pieceName(req.Handle))
		if err != nil && !isNotExist(err) {
			return errResp("piece remove: %v", err)
		}
		return &Response{OK: true}
	case OpPing:
		return &Response{OK: true, N: int64(ds.ID)}
	case OpPieceWriteDupSync:
		if resp := ds.handleListWrite(req); !resp.OK {
			return resp
		}
		if err := ds.forward(req); err != nil {
			return errResp("mirror forward: %v", err)
		}
		return &Response{OK: true, N: int64(len(req.Data))}
	case OpPieceWriteDupAsync:
		if resp := ds.handleListWrite(req); !resp.OK {
			return resp
		}
		ds.startForwarder()
		dup := *req
		dup.Data = append([]byte(nil), req.Data...)
		ds.fwdQueue <- fwdItem{req: &dup}
		return &Response{OK: true, N: int64(len(req.Data))}
	case OpFlushForwards:
		ds.startForwarder()
		done := make(chan error, 1)
		ds.fwdQueue <- fwdItem{done: done}
		if err := <-done; err != nil {
			return errResp("flush: %v", err)
		}
		return &Response{OK: true}
	}
	return errResp("data server: unknown op %d", req.Op)
}

// pieceSegs returns the piece ranges a read or write request names:
// the list and vectored ops carry them in Segs, the single-range ops
// carry one range at Offset, Length bytes long for a read and as long
// as Data for a write.
func pieceSegs(req *Request) []Seg {
	switch req.Op {
	case OpPieceRead:
		return []Seg{{Offset: req.Offset, Length: req.Length}}
	case OpPieceWrite, OpPieceWriteDupSync, OpPieceWriteDupAsync:
		return []Seg{{Offset: req.Offset, Length: int64(len(req.Data))}}
	}
	return req.Segs
}

// checkSegs refuses a segment list no piece can serve: a negative
// offset or length, or an end or a list total past the largest int64.
func checkSegs(segs []Seg) error {
	var total int64
	for _, s := range segs {
		if s.Offset < 0 || s.Length < 0 {
			return fmt.Errorf("negative segment [%d,+%d)", s.Offset, s.Length)
		}
		if s.Length > math.MaxInt64-s.Offset || s.Length > math.MaxInt64-total {
			return fmt.Errorf("segment [%d,+%d) overflows", s.Offset, s.Length)
		}
		total += s.Length
	}
	return nil
}

// handleListRead serves every piece read. Each extent of the list is
// read once, clamped to the piece's size, into one buffer. For an
// ascending, disjoint list (the shape clients send) the extents are
// the segments themselves and that buffer is the reply. Any other list
// — unsorted or overlapping — is first merged into maximal extents in
// ascending order, and each segment's bytes are then copied out of its
// extent in request order. Short segments are holes or EOF, and
// SegLens tells the client how much of each was served.
func (ds *DataServer) handleListRead(req *Request) *Response {
	segs := pieceSegs(req)
	if err := checkSegs(segs); err != nil {
		return errResp("list read: %v", err)
	}
	f, err := ds.store.Open(pieceName(req.Handle))
	if err != nil {
		// Piece never written: every segment is a hole.
		return &Response{OK: true, SegLens: make([]int64, len(segs))}
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return errResp("list read: %v", err)
	}
	held := func(e Seg) int64 { return max(0, min(e.Length, size-e.Offset)) }
	ext, group := segs, []int(nil)
	if !ascending(segs) {
		ext, group = mergeSegs(segs)
	}
	var total int64
	for _, e := range ext {
		total += held(e)
	}
	buf := make([]byte, total)
	lens := make([]int64, len(ext))
	var pos int64
	for k, e := range ext {
		n, err := f.ReadAt(buf[pos:pos+held(e)], e.Offset)
		if err != nil && err != io.EOF {
			return errResp("list read: %v", err)
		}
		lens[k] = int64(n)
		pos += int64(n)
	}
	if group == nil {
		return &Response{OK: true, Data: buf[:pos], SegLens: lens}
	}
	views := make([][]byte, len(ext))
	for k, n := range lens {
		views[k], buf = buf[:n], buf[n:]
	}
	out := make([]byte, 0, pos)
	segLens := make([]int64, len(segs))
	for i, s := range segs {
		v := within(views[group[i]], ext[group[i]].Offset, s)
		segLens[i] = int64(len(v))
		out = append(out, v...)
	}
	return &Response{OK: true, Data: out, SegLens: segLens}
}

// handleListWrite serves every piece write: the segment list may be
// unsorted but must not overlap, since overlap would make the result
// depend on the order the segments are applied in. Request.Data
// carries the segments' bytes concatenated in request order.
func (ds *DataServer) handleListWrite(req *Request) *Response {
	segs := pieceSegs(req)
	if err := checkSegs(segs); err != nil {
		return errResp("list write: %v", err)
	}
	var total int64
	for _, s := range segs {
		total += s.Length
	}
	if total != int64(len(req.Data)) {
		return errResp("list write: payload %d bytes, segments claim %d", len(req.Data), total)
	}
	if !ascending(segs) {
		order := byOffset(segs)
		for k := 1; k < len(order); k++ {
			prev, cur := segs[order[k-1]], segs[order[k]]
			if prev.Offset+prev.Length > cur.Offset {
				return errResp("list write: overlapping segments [%d,+%d) and [%d,+%d)",
					prev.Offset, prev.Length, cur.Offset, cur.Length)
			}
		}
	}
	ds.filesMu.Lock()
	f, err := ds.store.Open(pieceName(req.Handle))
	if err != nil {
		f, err = ds.store.Create(pieceName(req.Handle))
	}
	ds.filesMu.Unlock()
	if err != nil {
		return errResp("piece create: %v", err)
	}
	defer f.Close()
	data := req.Data
	for _, s := range segs {
		if s.Length > 0 {
			if _, err := f.WriteAt(data[:s.Length], s.Offset); err != nil {
				return errResp("list write: %v", err)
			}
		}
		data = data[s.Length:]
	}
	return &Response{OK: true, N: int64(len(req.Data))}
}

// forward synchronously delivers a write to the mirror partner.
func (ds *DataServer) forward(req *Request) error {
	if ds.mirrorAddr == "" {
		return fmt.Errorf("no mirror partner configured on server %d", ds.ID)
	}
	ds.fwdMu.Lock()
	defer ds.fwdMu.Unlock()
	if ds.fwdConn == nil {
		c, err := dialConn(ds.mirrorAddr)
		if err != nil {
			return err
		}
		ds.fwdConn = c
	}
	fwd := *req
	fwd.Op, fwd.Segs = OpListWrite, pieceSegs(req)
	var resp Response
	err := ds.fwdConn.call(&fwd, &resp)
	if err != nil {
		ds.fwdConn.close()
		ds.fwdConn = nil
		return err
	}
	if !resp.OK {
		return resp.err()
	}
	return nil
}

// startForwarder launches the asynchronous forwarding worker once.
func (ds *DataServer) startForwarder() {
	ds.fwdOnce.Do(func() {
		go func() {
			for {
				select {
				case <-ds.closed:
					return
				case item := <-ds.fwdQueue:
					if item.done != nil {
						ds.fwdErrMu.Lock()
						err := ds.fwdErr
						ds.fwdErr = nil
						ds.fwdErrMu.Unlock()
						item.done <- err
						continue
					}
					if err := ds.forward(item.req); err != nil {
						ds.fwdErrMu.Lock()
						if ds.fwdErr == nil {
							ds.fwdErr = err
						}
						ds.fwdErrMu.Unlock()
					}
				}
			}
		}()
	})
}

func isNotExist(err error) bool {
	return err != nil && errorsIs(err, chio.ErrNotExist)
}

func (ds *DataServer) heartbeatLoop() {
	t := time.NewTicker(ds.hbPeriod)
	defer t.Stop()
	for {
		select {
		case <-ds.closed:
			return
		case <-t.C:
			ds.sendHeartbeat()
		}
	}
}

func (ds *DataServer) sendHeartbeat() {
	ds.hbMu.Lock()
	defer ds.hbMu.Unlock()
	if ds.hbConn == nil {
		c, err := dialConn(ds.mgrAddr)
		if err != nil {
			return // mgr not up yet; retry next tick
		}
		ds.hbConn = c
	}
	var resp Response
	err := ds.hbConn.call(&Request{Op: OpLoadReport, ServerID: ds.ID, Load: ds.Load()}, &resp)
	if err != nil {
		ds.hbConn.close()
		ds.hbConn = nil
	}
}

// Close stops the server and waits for in-flight requests.
func (ds *DataServer) Close() error {
	select {
	case <-ds.closed:
		return nil
	default:
	}
	close(ds.closed)
	err := ds.ln.Close()
	ds.hbMu.Lock()
	if ds.hbConn != nil {
		ds.hbConn.close()
		ds.hbConn = nil
	}
	ds.hbMu.Unlock()
	ds.fwdMu.Lock()
	if ds.fwdConn != nil {
		ds.fwdConn.close()
		ds.fwdConn = nil
	}
	ds.fwdMu.Unlock()
	// Force-close live peer connections so serve goroutines exit even
	// when clients are still attached.
	ds.tracker.closeAll()
	ds.wg.Wait()
	return err
}
