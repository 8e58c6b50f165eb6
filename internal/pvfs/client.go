package pvfs

import (
	"context"
	"fmt"
	"io"
	"sync"

	"pario/internal/chio"
	"pario/internal/rpcpool"
)

// Client is a PVFS client. It implements chio.FileSystem: metadata
// operations go to the manager, data operations are decomposed into
// per-server stripe runs and issued to all data servers in parallel.
// A Client is safe for concurrent use; stripe fetches from concurrent
// readers multiplex over the per-server connection pools.
type Client struct {
	cfg  rpcpool.Config
	ctx  context.Context
	meta *transport
	data []*transport
}

// Dial connects to the manager and every data server. Transport
// behavior (pool size, per-request timeout, retry budget, stripe-size
// hint for created files) is set with rpcpool options shared with the
// CEFT backend:
//
//	cl, err := pvfs.Dial(mgr, iods,
//		rpcpool.WithTimeout(2*time.Second),
//		rpcpool.WithRetries(3))
func Dial(mgrAddr string, dataAddrs []string, opts ...rpcpool.Option) (*Client, error) {
	if len(dataAddrs) == 0 {
		return nil, fmt.Errorf("pvfs: no data servers")
	}
	cfg := rpcpool.Apply(opts...)
	cl := &Client{cfg: cfg, ctx: context.Background(), meta: newTransport(mgrAddr, cfg)}
	for _, a := range dataAddrs {
		cl.data = append(cl.data, newTransport(a, cfg))
	}
	// Establish one connection per server up front so a bad address
	// fails Dial instead of the first operation.
	warmCtx := context.Background()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		warmCtx, cancel = context.WithTimeout(warmCtx, cfg.Timeout)
		defer cancel()
	}
	all := append([]*transport{cl.meta}, cl.data...)
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, tr := range all {
		wg.Add(1)
		go func(i int, tr *transport) {
			defer wg.Done()
			errs[i] = tr.warm(warmCtx)
		}(i, tr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// BackendName returns "pvfs".
func (cl *Client) BackendName() string { return "pvfs" }

// NumServers returns the data server count.
func (cl *Client) NumServers() int { return len(cl.data) }

// WithContext implements chio.ContextBinder: the returned view shares
// this client's connection pools, but its operations (including
// in-flight stripe reads) abort when ctx is done.
func (cl *Client) WithContext(ctx context.Context) chio.FileSystem {
	if ctx == nil {
		ctx = context.Background()
	}
	c2 := *cl
	c2.ctx = ctx
	return &c2
}

// Close releases all pooled connections.
func (cl *Client) Close() error {
	var first error
	if cl.meta != nil {
		first = cl.meta.close()
	}
	for _, d := range cl.data {
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (cl *Client) metaCall(ctx context.Context, req *Request) (*Response, error) {
	resp, err := cl.meta.call(ctx, req)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		if resp.NotFound {
			return nil, fmt.Errorf("%w: %s", chio.ErrNotExist, req.Name)
		}
		return nil, resp.err()
	}
	return resp, nil
}

// Create implements chio.FileSystem: it allocates (or truncates) the
// file and clears any stale pieces on the data servers.
func (cl *Client) Create(name string) (chio.File, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpCreate, Name: name, Stripe: cl.cfg.StripeSize})
	if err != nil {
		return nil, err
	}
	m := resp.Meta
	// Clear old pieces in parallel.
	errs := make([]error, len(cl.data))
	var wg sync.WaitGroup
	for i, d := range cl.data {
		wg.Add(1)
		go func(i int, d *transport) {
			defer wg.Done()
			r, err := d.call(cl.ctx, &Request{Op: OpPieceRemove, Handle: m.Handle})
			if err == nil && !r.OK {
				err = r.err()
			}
			errs[i] = err
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &file{cl: cl, meta: m}, nil
}

// Open implements chio.FileSystem.
func (cl *Client) Open(name string) (chio.File, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpLookup, Name: name})
	if err != nil {
		return nil, err
	}
	return &file{cl: cl, meta: resp.Meta}, nil
}

// Stat implements chio.FileSystem.
func (cl *Client) Stat(name string) (chio.FileInfo, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpStat, Name: name})
	if err != nil {
		return chio.FileInfo{}, err
	}
	return chio.FileInfo{Name: name, Size: resp.Meta.Size}, nil
}

// Remove implements chio.FileSystem.
func (cl *Client) Remove(name string) error {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpRemove, Name: name})
	if err != nil {
		return err
	}
	m := resp.Meta
	var wg sync.WaitGroup
	for _, d := range cl.data {
		wg.Add(1)
		go func(d *transport) {
			defer wg.Done()
			d.call(cl.ctx, &Request{Op: OpPieceRemove, Handle: m.Handle})
		}(d)
	}
	wg.Wait()
	return nil
}

// List implements chio.FileSystem.
func (cl *Client) List(prefix string) ([]chio.FileInfo, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpList, Name: prefix})
	if err != nil {
		return nil, err
	}
	out := make([]chio.FileInfo, 0, len(resp.Metas))
	for _, m := range resp.Metas {
		out = append(out, chio.FileInfo{Name: m.Name, Size: m.Size})
	}
	return out, nil
}

// LoadMap fetches the manager's latest per-server load reports.
func (cl *Client) LoadMap() (map[int]float64, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpLoadQuery})
	if err != nil {
		return nil, err
	}
	return resp.Loads, nil
}

// decompose splits the logical range [off, off+length) into
// per-server lists of stripe runs. Each server's runs come out in
// ascending ServerOff (and BufOff) order.
func decompose(off, length, stripe int64, nServers int) [][]StripeRun {
	runs := make([][]StripeRun, nServers)
	start := off
	end := off + length
	for off < end {
		s := off / stripe
		server := int(s % int64(nServers))
		inStripe := off % stripe
		n := stripe - inStripe
		if off+n > end {
			n = end - off
		}
		serverOff := (s/int64(nServers))*stripe + inStripe
		list := runs[server]
		// Merge only when both the server-local range and the buffer
		// range continue the previous run (true for consecutive
		// stripes only when nServers == 1).
		if k := len(list); k > 0 &&
			list[k-1].ServerOff+list[k-1].Length == serverOff &&
			list[k-1].BufOff+list[k-1].Length == off-start {
			list[k-1].Length += n
		} else {
			runs[server] = append(list, StripeRun{
				Server:    server,
				ServerOff: serverOff,
				BufOff:    off - start,
				Length:    n,
			})
		}
		off += n
	}
	return runs
}

// file is an open PVFS file.
type file struct {
	cl     *Client
	mu     sync.Mutex
	meta   Meta
	off    int64
	closed bool
}

func (f *file) Name() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meta.Name
}

var errFileClosed = fmt.Errorf("pvfs: file already closed")

// handle returns the file's metadata, or an error once closed.
func (f *file) handle() (Meta, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return Meta{}, errFileClosed
	}
	return f.meta, nil
}

// refreshSize re-fetches the file size from the manager.
func (f *file) refreshSize(m *Meta) error {
	resp, err := f.cl.metaCall(f.cl.ctx, &Request{Op: OpStat, Name: m.Name})
	if err != nil {
		return err
	}
	m.Size = resp.Meta.Size
	f.mu.Lock()
	if !f.closed {
		f.meta.Size = resp.Meta.Size
	}
	f.mu.Unlock()
	return nil
}

// ReadAt implements io.ReaderAt with parallel per-server reads.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pvfs: negative read offset")
	}
	m, err := f.handle()
	if err != nil {
		return 0, err
	}
	want := int64(len(p))
	if off+want > m.Size {
		// The file may have grown since open.
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
	// The runs tile [0, n) of p exactly, and the list read path
	// zero-fills each run's hole/EOF tail itself, so no up-front
	// whole-buffer zeroing pass is needed.
	// The root span (when tracing is on) ties the per-server RPC spans
	// issued below into one trace for this application-level read.
	ctx, sp := f.cl.cfg.Tracer.Start(f.cl.ctx, "read")
	err = EachServer(decompose(off, n, m.StripeSize, len(f.cl.data)), func(server int, list []StripeRun) error {
		return readRuns(ctx, f.cl.data[server], m.Handle, list, p)
	})
	if err != nil {
		sp.Finish(err)
		return 0, err
	}
	sp.AddBytes(n)
	sp.Finish(nil)
	return int(n), outErr
}

// WriteAt implements io.WriterAt with parallel per-server writes.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pvfs: negative write offset")
	}
	m, err := f.handle()
	if err != nil {
		return 0, err
	}
	n := int64(len(p))
	if n == 0 {
		return 0, nil
	}
	ctx, sp := f.cl.cfg.Tracer.Start(f.cl.ctx, "write")
	err = EachServer(decompose(off, n, m.StripeSize, len(f.cl.data)), func(server int, list []StripeRun) error {
		return writeRuns(ctx, f.cl.data[server], m.Handle, list, p)
	})
	if err != nil {
		sp.Finish(err)
		return 0, err
	}
	sp.AddBytes(n)
	sp.Finish(nil)
	// The size RPC is needed only when the write extends the file. Our
	// cached size can lag the manager's (another writer may have grown
	// the file) but never exceeds it, so off+n <= cached size proves the
	// manager already records at least off+n and the RPC is redundant.
	if off+n > m.Size {
		if _, err := f.cl.metaCall(f.cl.ctx, &Request{Op: OpSetSize, Name: m.Name, Length: off + n}); err != nil {
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
		return 0, fmt.Errorf("pvfs: bad whence %d", whence)
	}
	if next < 0 {
		return 0, fmt.Errorf("pvfs: negative seek position")
	}
	f.off = next
	return next, nil
}

// Close invalidates the handle: subsequent operations on the file
// fail, and a second Close is a safe no-op. The client's pooled
// connections are shared across files and stay open.
func (f *file) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.meta = Meta{}
	return nil
}
