package main

import (
	"fmt"
	"sort"
	"time"

	"pario/internal/blast"
	"pario/internal/iotrace"
	"pario/internal/pblast"
	"pario/internal/seq"
)

// scanSpec is an mpiblast-style scan workload: closed-loop
// core.ParallelSearch calls, one at a time, over a parallel file system.
type scanSpec struct {
	cluster  cluster
	letters  int64
	params   blast.Params
	cached   bool // readahead + collective I/O
	setups   int  // deployments from nothing per run; setup_s is their median
	queries  int  // distinct queries, cycled by the closed loop
	queryLen int
}

const (
	// tracedQueries and replayQueries size the traced run: queries
	// searched both untraced and traced, and queries replayed serially
	// for the layer budget and the kernel.
	tracedQueries = 4
	replayQueries = 2
)

func (sp scanSpec) searcher(d *deployment) searcher {
	return searcher{d: d, params: sp.params, workers: sp.cluster.clients, threads: 1, cached: sp.cached}
}

func (sp scanSpec) queryList(in *inputs) ([]*seq.Sequence, error) {
	qs := make([]*seq.Sequence, sp.queries)
	for i := range qs {
		q, err := in.query(i, sp.queryLen)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// setupRuns deploys n times from nothing, keeps the last deployment,
// and reports the median set-up time and ingest rate. start, when
// non-nil, starts a service on each deployment before it counts as
// ready.
func setupRuns(c cluster, in *inputs, n int, tr *tracer, rep *report, start func(*deployment) error) (*deployment, error) {
	var setupS, ingest []float64
	var d *deployment
	for i := 0; i < n; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var ing time.Duration
		var err error
		d, ing, err = deploy(c, in.fasta, tr)
		if err == nil && start != nil {
			if err = start(d); err != nil {
				d.close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		ingest = append(ingest, float64(in.letters)/ing.Seconds()/1e6)
	}
	rep.set("setup_s", median(setupS))
	rep.set("ingest_mbases_per_s", median(ingest))
	return d, nil
}

func runScan(sp scanSpec, env *environment, secs int, trace bool) (*report, error) {
	rep := newReport()
	in, err := makeInputs(sp.letters, sp.cluster.fragments, env.Seed)
	if err != nil {
		return nil, err
	}
	env.DBLetters, env.DBSequences, env.Fragments, env.Queries = in.letters, in.seqs, sp.cluster.fragments, sp.queries
	queries, err := sp.queryList(in)
	if err != nil {
		return nil, err
	}
	orc := newOracle(in, sp.params)
	if trace {
		return rep, scanTraced(sp, env.Workload, in, queries[:tracedQueries], orc, rep)
	}

	d, err := setupRuns(sp.cluster, in, sp.setups, nil, rep, nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	for _, q := range queries {
		if _, err := orc.ref(q); err != nil {
			return nil, err
		}
	}
	rep.set("serial_mbases_per_s", orc.mbasesPerSec())

	s := sp.searcher(d)
	// One untimed search lets connections and lazily built state settle.
	if _, _, err := s.search(queries[0], &iotrace.CacheStats{}); err != nil {
		return nil, fmt.Errorf("warm-up search: %w", err)
	}
	in.fasta = nil
	rss := startRSSPeak()
	var lat []time.Duration
	var total time.Duration
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	for i := 0; time.Now().Before(deadline) || i < len(queries); i++ {
		q := queries[i%len(queries)]
		out, wall, err := s.search(q, &iotrace.CacheStats{})
		ref, _ := orc.ref(q)
		rep.op(err, err == nil && sameAnswer(ref, out.Result), fmt.Sprintf("scan of %s", q.ID))
		lat = append(lat, wall)
		total += wall
	}
	if err := rss.end(rep); err != nil {
		return nil, err
	}
	rep.set("scan_mbases_per_s", float64(in.letters)*float64(len(lat))/total.Seconds()/1e6)
	rep.set("scan_p50_s", median(seconds(lat)))
	rep.note("scan: %d searches, %d distinct queries", len(lat), len(queries))
	return rep, nil
}

// scanTraced is the traced run of a scan workload: the same queries
// searched untraced and traced, then replayed serially for the layer
// budget and over pre-decoded subjects for the kernel.
func scanTraced(sp scanSpec, workload string, in *inputs, queries []*seq.Sequence, orc *oracle, rep *report) error {
	tr := newTracer()
	d, err := setupRuns(sp.cluster, in, 1, tr, rep, nil)
	if err != nil {
		return err
	}
	defer d.close()
	reportIngest(d, tr.since(0), rep)
	for _, q := range queries {
		if _, err := orc.ref(q); err != nil {
			return err
		}
	}
	s := sp.searcher(d)
	if _, _, err := s.search(queries[0], &iotrace.CacheStats{}); err != nil {
		return fmt.Errorf("warm-up search: %w", err)
	}
	serialRate := orc.mbasesPerSec()

	// Untraced pass: scheduling, RPC and cache counters.
	raU := &iotrace.CacheStats{}
	calls0, retries0, errs0, lat0 := d.dataRPCs(d.rpc)
	rr0 := d.reroutes()
	var wallsU []float64
	var busy, strag []float64
	reassigned := 0
	untraced := make([]*pblast.Outcome, len(queries))
	for i, q := range queries {
		out, wall, err := s.search(q, raU)
		ref, _ := orc.ref(q)
		rep.op(err, err == nil && sameAnswer(ref, out.Result), "untraced scan of "+q.ID)
		if err != nil {
			return err
		}
		untraced[i] = out
		wallsU = append(wallsU, wall.Seconds())
		busy = append(busy, ratio(out.SearchTime.Seconds(), float64(s.workers)*out.WallTime.Seconds()))
		strag = append(strag, stragglerRatio(out))
		reassigned += out.Reassigned
	}
	calls1, _, _, lat1 := d.dataRPCs(d.rpc)
	nq := float64(len(queries))
	scanRate := float64(in.letters) * nq / sum(wallsU) / 1e6
	rep.set("pblast.worker_busy_frac", median(busy))
	rep.set("pblast.straggler_ratio", median(strag))
	rep.set("pblast.parallel_efficiency", scanRate/(float64(s.workers*s.threads)*serialRate))
	rep.set("rpcpool.data_rpcs_per_query", float64(calls1-calls0)/nq)
	rep.set("rpcpool.rpc_mean_ms", ratio(float64(lat1-lat0)/1e6, float64(calls1-calls0)))
	rep.set("ceft.reroutes_per_query", float64(d.reroutes()-rr0)/nq)
	snapU := raU.Snapshot()
	rep.set("readahead.hit_ratio", snapU.HitRate())
	rep.set("readahead.borrow_ratio", snapU.ZeroCopyRate())
	rep.set("readahead.prefetch_waste_ratio", ratio(float64(snapU.PrefetchWasted), float64(snapU.PrefetchIssued)))

	// Traced pass: the same searches through the shimmed stack.
	raT := &iotrace.CacheStats{}
	m := tr.mark()
	var wallsT []float64
	for i, q := range queries {
		out, wall, err := s.tracedSearch(q, tr, raT)
		rep.op(err, err == nil && sameAnswer(untraced[i].Result, out.Result), "traced scan of "+q.ID)
		if err != nil {
			return err
		}
		wallsT = append(wallsT, wall.Seconds())
		reassigned += out.Reassigned
	}
	passSpans := tr.since(m)
	_, retries2, errs2, _ := d.dataRPCs(d.rpc)
	rep.set("rpcpool.retries", float64(retries2-retries0))
	rep.set("rpcpool.errors", float64(errs2-errs0))
	rep.set("pblast.reassigned", float64(reassigned))
	rep.set("trace.overhead_frac", median(wallsT)/median(wallsU)-1)
	snapT := raT.Snapshot()
	rep.check(snapT.ZeroCopyRate() == snapU.ZeroCopyRate(),
		"readahead.borrow_ratio traced %.4f vs untraced %.4f", snapT.ZeroCopyRate(), snapU.ZeroCopyRate())
	reportIO(d, passSpans, nq, rep)

	if err := reportReplay(s, queries[:replayQueries], orc, tr, rep); err != nil {
		return err
	}
	rep.set("blast.pipeline_speedup", 0)
	for _, name := range []string{"blastd.handler_ms_p50", "blastd.http_ms_p50", "blastd.queue_ms_p90",
		"blastd.run_ms_p50", "blastd.hit_ratio", "blastd.shared_ratio", "loadgen.lag_p90_ms"} {
		rep.set(name, 0)
	}
	return writeSpans(fmt.Sprintf(".bench_build/traces/%s-seed%d.json", workload, in.seed), tr.since(0))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// reportIngest derives the write-path layer metrics from the set-up
// spans and the ingest client's RPC counters.
func reportIngest(d *deployment, spans []span, rep *report) {
	self := layerSelf(spans)
	rep.set("pvfs.write_s", 0)
	rep.set("ceft.write_s", 0)
	rep.set(d.layer()+".write_s", self[d.layer()].Seconds())
	calls, _, _, _ := d.dataRPCs(d.ingestRPC)
	rep.set("rpcpool.write_rpcs", float64(calls))
}

// reportIO derives the read-path layer metrics from one traced pass of
// nq queries: per-layer self times, bytes, merge and server spread.
func reportIO(d *deployment, spans []span, nq float64, rep *report) {
	self := layerSelf(spans)
	rep.set("pvfs.read_s", 0)
	rep.set("ceft.read_s", 0)
	rep.set(d.layer()+".read_s", self[d.layer()].Seconds()/nq)
	rep.set("readahead.read_s", self["readahead"].Seconds()/nq)
	rep.set("collio.read_s", self["collio"].Seconds()/nq)
	rep.set("pvfs.iod_store_s", self["iod"].Seconds()/nq)
	var clientBytes, collReads, clientReads float64
	served := map[string]float64{}
	for _, s := range spans {
		switch {
		case s.Op != "read":
		case s.Layer == d.layer():
			clientBytes += float64(s.Bytes)
			clientReads++
		case s.Layer == "collio":
			collReads++
		case s.Layer == "iod":
			served[s.Where] += float64(s.Bytes)
		}
	}
	rep.set("pvfs.bytes_per_query", clientBytes/nq)
	rep.set("collio.merge_ratio", 0)
	if collReads > 0 {
		rep.set("collio.merge_ratio", ratio(collReads, clientReads))
	}
	var total, most float64
	for _, b := range served {
		total += b
		most = max(most, b)
	}
	nServers := d.servers
	if d.ceft {
		nServers *= 2
	}
	rep.set("pvfs.iod_byte_spread", ratio(most, total/float64(nServers)))
	rep.set("ceft.hot_bytes_share", 0)
	if d.throttle > 0 {
		rep.set("ceft.hot_bytes_share", ratio(served["iod0"], total))
	}
}

// reportReplay runs the serial replays (untraced and traced) and the
// kernel-only searches, checking each against the oracle.
func reportReplay(s searcher, queries []*seq.Sequence, orc *oracle, tr *tracer, rep *report) error {
	var decode, kernel, unattrib, replayWall time.Duration
	budget := map[string]time.Duration{}
	var packedU, packedT float64
	var st blast.SearchStats
	for _, q := range queries {
		ref, err := orc.ref(q)
		if err != nil {
			return err
		}
		u, err := s.replay(q, nil)
		rep.op(err, err == nil && sameAnswer(ref, u.res), "untraced replay of "+q.ID)
		if err != nil {
			return err
		}
		t, err := s.replay(q, tr)
		rep.op(err, err == nil && sameAnswer(ref, t.res), "traced replay of "+q.ID)
		if err != nil {
			return err
		}
		packedU += u.packedRatio
		packedT += t.packedRatio
		for layer, d := range t.layerSelf {
			budget[layer] += d
		}
		decode += t.decodeSelf
		unattrib += t.unattrib
		replayWall += t.wall
		k, err := s.kernel(q, 1)
		rep.op(err, err == nil && sameAnswer(ref, k.res), "kernel replay of "+q.ID)
		if err != nil {
			return err
		}
		kernel += k.wall
		st.ScannedBases += k.res.Stats.ScannedBases
		st.SeedHits += k.res.Stats.SeedHits
		st.UngappedExts += k.res.Stats.UngappedExts
		st.GappedExts += k.res.Stats.GappedExts
		st.PackedExts += k.res.Stats.PackedExts
	}
	n := float64(len(queries))
	layers := make([]string, 0, len(budget))
	for layer := range budget {
		layers = append(layers, layer)
	}
	sort.Slice(layers, func(i, j int) bool { return budget[layers[i]] > budget[layers[j]] })
	line := "layer budget of the serial replay (self time, share of wall):"
	for _, layer := range layers {
		line += fmt.Sprintf(" %s %.3fs %.1f%%,", layer, budget[layer].Seconds()/n, 100*budget[layer].Seconds()/replayWall.Seconds())
	}
	rep.note("%s unattributed %.1f%%", line, 100*unattrib.Seconds()/replayWall.Seconds())
	rep.check(packedU == packedT, "blastdb.packed_ratio traced %.4f vs untraced %.4f", packedT/n, packedU/n)
	rep.set("blastdb.packed_ratio", packedU/n)
	rep.set("blastdb.decode_s", decode.Seconds()/n)
	rep.set("budget.unattributed_frac", unattrib.Seconds()/replayWall.Seconds())
	rep.set("blast.kernel_s", kernel.Seconds()/n)
	rep.set("blast.kernel_mbases_per_s", float64(orc.in.letters)*n/kernel.Seconds()/1e6)
	rep.set("blast.scanned_bases", float64(st.ScannedBases)/n)
	rep.set("blast.seed_hits", float64(st.SeedHits)/n)
	rep.set("blast.ungapped_exts", float64(st.UngappedExts)/n)
	rep.set("blast.gapped_exts", float64(st.GappedExts)/n)
	rep.set("blast.packed_ext_ratio", ratio(float64(st.PackedExts), float64(st.UngappedExts)))
	return nil
}
