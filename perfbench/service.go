package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pario/internal/blast"
	"pario/internal/blastd"
	"pario/internal/chio"
	"pario/internal/pblast"
	"pario/internal/seq"
)

// serviceSpec is the blastd workload: open-loop Poisson arrivals over
// at most two keep-alive connections, a seeded share repeating from a
// small pool, then a closed-loop phase of two clients sending fresh
// queries only.
type serviceSpec struct {
	cluster     cluster
	letters     int64
	threads     int     // search threads of the single blastd worker
	rate        float64 // offered requests per second, open loop
	setups      int     // deployments from nothing per run; setup_s is their median
	poolSize    int     // distinct repeated queries
	repeatShare float64 // share of open-loop requests drawn from the pool
	checkShare  float64 // share of fresh queries checked against the oracle
	openShare   float64 // share of the measured seconds run open-loop
	conns       int     // keep-alive connections / closed-loop clients
	queryLen    int     // fresh query lengths span 0.5x to 2x of this
}

// svcRequest is one request of the schedule.
type svcRequest struct {
	q    *seq.Sequence
	due  time.Duration // offset from the phase start
	pool int           // pool index, or -1 for a fresh query
}

// svcSample is one completed request.
type svcSample struct {
	req     svcRequest
	latency time.Duration // from due to response decoded
	lag     time.Duration // how late the request was sent
	rtt     time.Duration // client round trip
	cached  bool
	res     *blast.Result
	err     error
	id      string
}

// service is a running blastd over a deployment.
type service struct {
	url     string
	client  *http.Client
	handler *handlerShim
}

// handlerShim times blastd's Handler() per request, keyed by the
// X-Bench-Req header, so HTTP transport time can be separated from
// handler time.
type handlerShim struct {
	next http.Handler
	mu   sync.Mutex
	took map[string]time.Duration
}

func (h *handlerShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	if id := r.Header.Get("X-Bench-Req"); id != "" {
		h.mu.Lock()
		h.took[id] = d
		h.mu.Unlock()
	}
}

// startService starts blastd (1 worker) and its HTTP listener on the
// deployment; both are stopped by d.close.
func startService(sp serviceSpec, d *deployment, tr *tracer) (*service, error) {
	workerFS := func(rank int) chio.FileSystem { return d.workers[rank] }
	if tr != nil {
		workerFS = func(rank int) chio.FileSystem {
			return wrapFS(d.workers[rank], tr, d.layer(), fmt.Sprintf("rank%d", rank))
		}
	}
	srv, err := blastd.New(context.Background(), blastd.Config{
		FS:       d.master,
		WorkerFS: workerFS,
		Search: pblast.NewConfig(dbName,
			pblast.WithParams(blast.Params{Program: blast.BlastN}),
			pblast.WithThreads(sp.threads)),
		Workers: 1,
		// One search at a time: the single worker's two threads are
		// the host's CPUs, so a second search would only time-share.
		MaxConcurrent: 1,
		FlightSize:    1 << 16,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, srv.Close)
	var h http.Handler = srv.Handler()
	svc := &service{}
	if tr != nil {
		svc.handler = &handlerShim{next: h, took: map[string]time.Duration{}}
		h = svc.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	tp := &http.Transport{MaxConnsPerHost: sp.conns, MaxIdleConnsPerHost: sp.conns, DisableCompression: true}
	d.closers = append(d.closers, func() error {
		err := hs.Close()
		<-done
		tp.CloseIdleConnections()
		return err
	})
	svc.url = "http://" + ln.Addr().String()
	svc.client = &http.Client{Transport: tp}
	return svc, nil
}

// send posts one search and decodes the response.
func (svc *service) send(q *seq.Sequence, id string) (*blastd.SearchResponse, error) {
	body, err := json.Marshal(blastd.SearchRequest{DB: dbName, Query: ">" + q.ID + "\n" + string(q.Data), Client: "perfbench"})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, svc.url+"/search", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Bench-Req", id)
	resp, err := svc.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out blastd.SearchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// openLoop sends the schedule at its due times over at most conns
// concurrent requests. A request that finds every connection busy
// waits, and that wait counts in its latency and in the generator lag.
func (svc *service) openLoop(sched []svcRequest, conns int) []svcSample {
	out := make([]svcSample, len(sched))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = svc.do(sched[i], start, "o"+strconv.Itoa(i))
			}
		}()
	}
	for i, r := range sched {
		if wait := time.Until(start.Add(r.due)); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

func (svc *service) do(r svcRequest, phase time.Time, id string) svcSample {
	sent := time.Now()
	s := svcSample{req: r, lag: sent.Sub(phase.Add(r.due)), id: id}
	resp, err := svc.send(r.q, id)
	done := time.Now()
	s.rtt = done.Sub(sent)
	s.latency = done.Sub(phase.Add(r.due))
	s.err = err
	if err == nil {
		s.cached, s.res = resp.Cached, resp.Result
	}
	return s
}

// closedLoop runs conns clients, each sending its next fresh query as
// soon as the previous one returns, for d. It returns the samples and
// the time from the start to the last response.
func (svc *service) closedLoop(fresh []*seq.Sequence, conns int, d time.Duration) ([]svcSample, time.Duration) {
	var mu sync.Mutex
	var out []svcSample
	next := 0
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				if next >= len(fresh) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				s := svc.do(svcRequest{q: fresh[i], pool: -1}, time.Now(), "c"+strconv.Itoa(i))
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// schedule draws the open-loop arrivals for d: exponential gaps at
// rate, each request a pool query with probability repeatShare and a
// fresh one otherwise.
func (sp serviceSpec) schedule(rng *rand.Rand, pool []*seq.Sequence, fresh func() (*seq.Sequence, error), d time.Duration) ([]svcRequest, error) {
	var out []svcRequest
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / sp.rate * float64(time.Second))
		if t >= d {
			return out, nil
		}
		r := svcRequest{due: t, pool: -1}
		if rng.Float64() < sp.repeatShare {
			r.pool = rng.IntN(len(pool))
			r.q = pool[r.pool]
		} else {
			q, err := fresh()
			if err != nil {
				return nil, err
			}
			r.q = q
		}
		out = append(out, r)
	}
}

// verify checks every sample: errors fail; pool answers must equal the
// oracle's the first time and that first response every time after;
// sampled fresh answers must equal the oracle's.
func verify(samples []svcSample, orc *oracle, checkFresh func(*seq.Sequence) bool, first map[int]*blast.Result, rep *report) error {
	for _, s := range samples {
		what := fmt.Sprintf("request %s (%s)", s.id, s.req.q.ID)
		if s.err != nil {
			rep.op(s.err, false, what)
			continue
		}
		switch {
		case s.req.pool >= 0 && first[s.req.pool] != nil:
			rep.op(nil, sameAnswer(first[s.req.pool], s.res), what+" against its first response")
		case s.req.pool >= 0 || checkFresh(s.req.q):
			ref, err := orc.ref(s.req.q)
			if err != nil {
				return err
			}
			want, err := viaJSON(ref)
			if err != nil {
				return err
			}
			rep.op(nil, sameAnswer(want, s.res), what)
			if s.req.pool >= 0 {
				first[s.req.pool] = s.res
			}
		default:
			rep.op(nil, true, what)
		}
	}
	return nil
}

func latenciesMS(samples []svcSample, keep func(svcSample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil && keep(s) {
			out = append(out, float64(s.latency)/1e6)
		}
	}
	return out
}

func runService(sp serviceSpec, env *environment, secs int, trace bool) (*report, error) {
	rep := newReport()
	in, err := makeInputs(sp.letters, sp.cluster.fragments, env.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(env.Seed, 0x5e1ec7))
	pool := make([]*seq.Sequence, sp.poolSize)
	for i := range pool {
		if pool[i], err = in.query(i, sp.queryLen); err != nil {
			return nil, err
		}
	}
	nFresh := 0
	fresh := func() (*seq.Sequence, error) {
		nFresh++
		return in.query(sp.poolSize+nFresh, sp.queryLen/2+rng.IntN(sp.queryLen*3/2+1))
	}
	openDur := time.Duration(float64(secs) * sp.openShare * float64(time.Second))
	closedDur := time.Duration(secs)*time.Second - openDur
	sched, err := sp.schedule(rng, pool, fresh, openDur)
	if err != nil {
		return nil, err
	}
	// Closed-loop queries: more than two clients can finish in time.
	var closed []*seq.Sequence
	for i := 0; i < int(closedDur.Seconds()*sp.rate*4)+8; i++ {
		q, err := fresh()
		if err != nil {
			return nil, err
		}
		closed = append(closed, q)
	}
	checked := map[string]bool{}
	for _, r := range sched {
		if r.pool < 0 && rng.Float64() < sp.checkShare {
			checked[queryKey(r.q)] = true
		}
	}
	for _, q := range closed {
		if rng.Float64() < sp.checkShare {
			checked[queryKey(q)] = true
		}
	}
	checkFresh := func(q *seq.Sequence) bool { return checked[queryKey(q)] }
	env.DBLetters, env.DBSequences, env.Fragments = in.letters, in.seqs, sp.cluster.fragments
	env.Queries, env.OfferedRate = sp.poolSize+nFresh, sp.rate
	orc := newOracle(in, blast.Params{Program: blast.BlastN})
	// The serial rate is taken on the pool queries alone: they all have
	// the nominal length, where fresh ones vary fourfold.
	for _, q := range pool {
		if _, err := orc.ref(q); err != nil {
			return nil, err
		}
	}
	serialRate := orc.mbasesPerSec()

	var tr *tracer
	n := sp.setups
	if trace {
		tr, n = newTracer(), 1
	}
	var svc *service
	d, err := setupRuns(sp.cluster, in, n, tr, rep, func(d *deployment) error {
		var err error
		svc, err = startService(sp, d, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	if trace {
		reportIngest(d, tr.since(0), rep)
	}
	// One untimed request per connection opens the keep-alive
	// connections and settles the pool.
	for c := 0; c < sp.conns; c++ {
		if _, err := svc.send(closed[len(closed)-1-c], "warm"+strconv.Itoa(c)); err != nil {
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}

	in.fasta = nil
	rss := startRSSPeak()
	open := svc.openLoop(sched, sp.conns)
	cl, clElapsed := svc.closedLoop(closed[:len(closed)-sp.conns], sp.conns, closedDur)
	if err := rss.end(rep); err != nil {
		return nil, err
	}
	first := map[int]*blast.Result{}
	if err := verify(append(open, cl...), orc, checkFresh, first, rep); err != nil {
		return nil, err
	}
	hits := latenciesMS(open, func(s svcSample) bool { return s.cached })
	misses := latenciesMS(open, func(s svcSample) bool { return !s.cached })
	closedMS := latenciesMS(cl, func(svcSample) bool { return true })
	var lag []float64
	for _, s := range open {
		lag = append(lag, float64(s.lag)/1e6)
	}
	satQPS := float64(len(closedMS)) / clElapsed.Seconds()
	rep.note("service: %d open-loop requests at %.1f/s (%d hits, %d misses), %d closed-loop", len(open), sp.rate, len(hits), len(misses), len(closedMS))
	if len(misses) < 100 {
		rep.note("service: only %d misses; fewer than 10 lie beyond p90", len(misses))
	}
	rep.note("%-32s %14.6g ms", "req_hit_p50_ms", median(hits))
	rep.note("%-32s %14.6g ms", "req_miss_p50_ms", median(misses))
	rep.note("%-32s %14.6g ms", "req_miss_p90_ms", quantile(misses, 0.9))
	rep.note("%-32s %14.6g req/s", "sat_qps", satQPS)
	rep.note("%-32s %14.6g ms", "loadgen_lag_p90_ms", quantile(lag, 0.9))
	if !trace {
		rep.set("serial_mbases_per_s", serialRate)
		rep.set("scan_mbases_per_s", satQPS*float64(in.letters)/1e6)
		rep.set("scan_p50_s", median(closedMS)/1e3)
		return rep, nil
	}
	if err := serviceLayers(sp, svc, d, open, lag, orc, tr, rep); err != nil {
		return nil, err
	}
	return rep, writeSpans(fmt.Sprintf(".bench_build/traces/%s-seed%d.json", env.Workload, env.Seed), tr.since(0))
}

// serviceLayers derives the traced run's layer metrics: blastd's from
// the handler shim and /debug/queries, the rest from direct pblast
// searches, replays and kernel runs with the service's configuration.
func serviceLayers(sp serviceSpec, svc *service, d *deployment, open []svcSample, lag []float64, orc *oracle, tr *tracer, rep *report) error {
	var handler, httpMS []float64
	svc.handler.mu.Lock()
	for _, s := range open {
		took, ok := svc.handler.took[s.id]
		if s.err == nil && s.cached && ok {
			handler = append(handler, float64(took)/1e6)
			httpMS = append(httpMS, float64(s.rtt-took)/1e6)
		}
	}
	svc.handler.mu.Unlock()
	rep.set("blastd.handler_ms_p50", median(handler))
	rep.set("blastd.http_ms_p50", median(httpMS))
	rep.set("loadgen.lag_p90_ms", quantile(lag, 0.9))
	resp, err := svc.client.Get(svc.url + "/debug/queries")
	if err != nil {
		return err
	}
	var flight struct{ Queries []blastd.QuerySummary }
	err = json.NewDecoder(resp.Body).Decode(&flight)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding /debug/queries: %w", err)
	}
	var queue, run []float64
	var nHit, nShared float64
	for _, q := range flight.Queries {
		queue = append(queue, q.QueueMS)
		switch q.Cache {
		case "hit":
			nHit++
		case "shared":
			nShared++
		case "miss":
			run = append(run, q.RunMS)
		}
	}
	total := float64(len(flight.Queries))
	rep.set("blastd.queue_ms_p90", quantile(queue, 0.9))
	rep.set("blastd.run_ms_p50", median(run))
	rep.set("blastd.hit_ratio", ratio(nHit, total))
	rep.set("blastd.shared_ratio", ratio(nShared, total))

	// The same search configuration driven directly, for pblast and the
	// storage layers below it.
	s := searcher{d: d, params: blast.Params{Program: blast.BlastN}, workers: 1, threads: sp.threads}
	var queries []*seq.Sequence
	for _, smp := range open {
		if smp.req.pool < 0 && len(queries) < tracedQueries {
			queries = append(queries, smp.req.q)
		}
	}
	var wallsU, wallsT, busy, strag []float64
	reassigned := 0
	calls0, retries0, errs0, lat0 := d.dataRPCs(d.rpc)
	for _, q := range queries {
		ref, err := orc.ref(q)
		if err != nil {
			return err
		}
		out, wall, err := s.search(q, nil)
		rep.op(err, err == nil && sameAnswer(ref, out.Result), "direct search of "+q.ID)
		if err != nil {
			return err
		}
		wallsU = append(wallsU, wall.Seconds())
		busy = append(busy, ratio(out.SearchTime.Seconds(), out.WallTime.Seconds()))
		strag = append(strag, stragglerRatio(out))
		reassigned += out.Reassigned
	}
	calls1, _, _, lat1 := d.dataRPCs(d.rpc)
	m := tr.mark()
	for _, q := range queries {
		ref, _ := orc.ref(q)
		out, wall, err := s.tracedSearch(q, tr, nil)
		rep.op(err, err == nil && sameAnswer(ref, out.Result), "traced direct search of "+q.ID)
		if err != nil {
			return err
		}
		wallsT = append(wallsT, wall.Seconds())
		reassigned += out.Reassigned
	}
	_, retries2, errs2, _ := d.dataRPCs(d.rpc)
	nq := float64(len(queries))
	rep.set("pblast.worker_busy_frac", median(busy))
	rep.set("pblast.straggler_ratio", median(strag))
	rep.set("pblast.parallel_efficiency", float64(orc.in.letters)*nq/sum(wallsU)/1e6/(float64(s.threads)*orc.mbasesPerSec()))
	rep.set("pblast.reassigned", float64(reassigned))
	rep.set("rpcpool.data_rpcs_per_query", float64(calls1-calls0)/nq)
	rep.set("rpcpool.rpc_mean_ms", ratio(float64(lat1-lat0)/1e6, float64(calls1-calls0)))
	rep.set("rpcpool.retries", float64(retries2-retries0))
	rep.set("rpcpool.errors", float64(errs2-errs0))
	rep.set("trace.overhead_frac", median(wallsT)/median(wallsU)-1)
	rep.set("ceft.reroutes_per_query", 0)
	for _, name := range []string{"readahead.hit_ratio", "readahead.borrow_ratio", "readahead.prefetch_waste_ratio"} {
		rep.set(name, 0)
	}
	reportIO(d, tr.since(m), nq, rep)
	if err := reportReplay(s, queries[:replayQueries], orc, tr, rep); err != nil {
		return err
	}
	var k1, k2 time.Duration
	for _, q := range queries[:replayQueries] {
		ref, _ := orc.ref(q)
		for _, th := range []int{1, sp.threads} {
			k, err := s.kernel(q, th)
			rep.op(err, err == nil && sameAnswer(ref, k.res), fmt.Sprintf("kernel replay of %s at %d threads", q.ID, th))
			if err != nil {
				return err
			}
			if th == 1 {
				k1 += k.wall
			} else {
				k2 += k.wall
			}
		}
	}
	rep.set("blast.pipeline_speedup", k1.Seconds()/k2.Seconds())
	return nil
}
