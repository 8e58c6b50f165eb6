package main

import (
	"bytes"
	"fmt"
	"time"

	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/iotrace"
	"pario/internal/pvfs"
	"pario/internal/rpcpool"
	"pario/internal/seq"
)

const dbName = "nt"

// cluster describes the parallel file system a workload runs on.
type cluster struct {
	ceft      bool          // CEFT-PVFS (2 x servers) instead of PVFS
	servers   int           // PVFS data servers, or CEFT servers per group
	fragments int           // database fragments
	clients   int           // worker clients (ranks 1..clients)
	throttle  time.Duration // per-KiB delay on the first data server after ingest
}

func (c cluster) layer() string {
	if c.ceft {
		return "ceft"
	}
	return "pvfs"
}

// deployment is a running cluster with the database ingested and one
// client dialed per worker rank.
type deployment struct {
	cluster
	master    chio.FileSystem   // the ingest client, also the master's view
	workers   []chio.FileSystem // index = rank; 0 unused
	rpc       *iotrace.RPCMetrics
	ingestRPC *iotrace.RPCMetrics
	dataAddrs map[string]bool
	ceftCls   []*ceft.Client
	closers   []func() error
}

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// deploy brings a cluster up from nothing: data servers started, the
// FASTA ingested with core.FormatDatabase, worker clients dialed. With
// a tracer the data servers' stores and the ingest client are wrapped
// in timing shims. It returns the deployment and the ingest (write
// path) time.
func deploy(c cluster, fasta []byte, tr *tracer) (*deployment, time.Duration, error) {
	d := &deployment{cluster: c, rpc: iotrace.NewRPCMetrics(), ingestRPC: iotrace.NewRPCMetrics(), dataAddrs: map[string]bool{}}
	store := func(i int) chio.FileSystem {
		if tr == nil {
			return nil
		}
		return wrapFS(chio.NewMemFS(), tr, "iod", fmt.Sprintf("iod%d", i))
	}
	var (
		servers []*pvfs.DataServer
		dial    func(obs rpcpool.Observer) (chio.FileSystem, *ceft.Client, error)
	)
	if c.ceft {
		dep, err := core.StartCEFT(c.servers, store)
		if err != nil {
			return nil, 0, err
		}
		d.closers = append(d.closers, dep.Close)
		servers = dep.Servers
		for _, a := range append(append([]string(nil), dep.PrimaryAddrs...), dep.MirrorAddrs...) {
			d.dataAddrs[a] = true
		}
		dial = func(obs rpcpool.Observer) (chio.FileSystem, *ceft.Client, error) {
			cl, err := dep.Client(ceft.DefaultOptions(), rpcpool.WithObserver(obs))
			return cl, cl, err
		}
	} else {
		dep, err := core.StartPVFS(c.servers, store)
		if err != nil {
			return nil, 0, err
		}
		d.closers = append(d.closers, dep.Close)
		servers = dep.Data
		for _, a := range dep.DataAddrs {
			d.dataAddrs[a] = true
		}
		dial = func(obs rpcpool.Observer) (chio.FileSystem, *ceft.Client, error) {
			cl, err := dep.Client(rpcpool.WithObserver(obs))
			return cl, nil, err
		}
	}
	master, _, err := dial(d.ingestRPC)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	d.closers = append(d.closers, closer(master))
	d.master = master
	ingestFS := master
	if tr != nil {
		ingestFS = wrapFS(master, tr, c.layer(), "ingest")
	}
	ingestStart := time.Now()
	_, err = core.FormatDatabase(ingestFS, dbName, seq.Nucleotide, c.fragments, bytes.NewReader(fasta))
	ingest := time.Since(ingestStart)
	if err != nil {
		d.close()
		return nil, 0, fmt.Errorf("ingest: %w", err)
	}
	if c.throttle > 0 {
		servers[0].SetThrottle(c.throttle)
	}
	d.workers = make([]chio.FileSystem, c.clients+1)
	for r := 1; r <= c.clients; r++ {
		fs, cl, err := dial(d.rpc)
		if err != nil {
			d.close()
			return nil, 0, err
		}
		d.closers = append(d.closers, closer(fs))
		d.workers[r] = fs
		if cl != nil {
			d.ceftCls = append(d.ceftCls, cl)
		}
	}
	return d, ingest, nil
}

func closer(fs chio.FileSystem) func() error {
	if c, ok := fs.(interface{ Close() error }); ok {
		return c.Close
	}
	return func() error { return nil }
}

// dataRPCs sums the calls m observed against data servers (metadata
// calls excluded), with their retries, errors and total latency.
func (d *deployment) dataRPCs(m *iotrace.RPCMetrics) (calls, retries, errs int64, latency time.Duration) {
	for _, s := range m.Snapshot() {
		if d.dataAddrs[s.Server] {
			calls += s.Calls
			retries += s.Retries
			errs += s.Errors
			latency += s.TotalLatency
		}
	}
	return calls, retries, errs, latency
}

// reroutes sums the hot-spot reroutes of every worker CEFT client.
func (d *deployment) reroutes() int64 {
	var n int64
	for _, cl := range d.ceftCls {
		for _, r := range cl.Audit().Reroutes {
			n += r
		}
	}
	return n
}
