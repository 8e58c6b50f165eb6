package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/collio"
	"pario/internal/core"
	"pario/internal/iotrace"
	"pario/internal/pblast"
	"pario/internal/readahead"
	"pario/internal/seq"
)

// collFanIn is the collective-I/O round fan-in bound: one slot per
// worker, so a round closes as soon as both ranks have enrolled.
const collFanIn = 2

// searcher runs parallel searches over a deployment, either through
// core.ParallelSearch's own layering (untraced) or through the same
// layers composed here with a timing shim between each pair (traced).
type searcher struct {
	d       *deployment
	params  blast.Params
	workers int
	threads int
	cached  bool // readahead block cache plus collective I/O
}

func (s searcher) config(ra *iotrace.CacheStats) pblast.Config {
	opts := []pblast.Option{pblast.WithParams(s.params), pblast.WithThreads(s.threads)}
	if s.cached && ra != nil {
		opts = append(opts,
			pblast.WithReadahead(readahead.WithStats(ra)),
			pblast.WithCollectiveIO(collio.WithMaxFanIn(collFanIn)))
	}
	return pblast.NewConfig(dbName, opts...)
}

// search runs one query through core.ParallelSearch, untraced.
func (s searcher) search(q *seq.Sequence, ra *iotrace.CacheStats) (*pblast.Outcome, time.Duration, error) {
	start := time.Now()
	out, err := core.ParallelSearch(context.Background(), q, core.SearchConfig{
		Search:   s.config(ra),
		Workers:  s.workers,
		MasterFS: s.d.master,
		WorkerFS: func(rank int) chio.FileSystem { return s.d.workers[rank] },
	})
	return out, time.Since(start), err
}

// tracedWorkerFS composes each rank's stack in core's order — one
// collective layer shared by every rank over the first rank's client,
// a readahead cache per rank above it — with a shim over every layer.
// Like core, it builds fresh layers for each search.
func (s searcher) tracedWorkerFS(tr *tracer, ra *iotrace.CacheStats) func(rank int) chio.FileSystem {
	client := func(rank int) chio.FileSystem {
		return wrapFS(s.d.workers[rank], tr, s.d.layer(), fmt.Sprintf("rank%d", rank))
	}
	if !s.cached {
		return client
	}
	var once sync.Once
	var shared chio.FileSystem
	return func(rank int) chio.FileSystem {
		once.Do(func() {
			shared = wrapFS(collio.Wrap(client(rank), collio.WithMaxFanIn(collFanIn)), tr, "collio", "shared")
		})
		return wrapFS(readahead.Wrap(shared, readahead.WithStats(ra)), tr, "readahead", fmt.Sprintf("rank%d", rank))
	}
}

// tracedSearch runs one query with every layer shimmed.
func (s searcher) tracedSearch(q *seq.Sequence, tr *tracer, ra *iotrace.CacheStats) (*pblast.Outcome, time.Duration, error) {
	start := time.Now()
	out, err := core.ParallelSearch(context.Background(), q, core.SearchConfig{
		Search:   s.config(nil),
		Workers:  s.workers,
		MasterFS: s.d.master,
		WorkerFS: s.tracedWorkerFS(tr, ra),
	})
	return out, time.Since(start), err
}

// rankFS is one worker's stack as the search sees it: traced when tr
// is non-nil.
func (s searcher) rankFS(tr *tracer) chio.FileSystem {
	if tr != nil {
		return s.tracedWorkerFS(tr, &iotrace.CacheStats{})(1)
	}
	fs := s.d.workers[1]
	if s.cached {
		fs = readahead.Wrap(collio.Wrap(fs, collio.WithMaxFanIn(collFanIn)), readahead.WithStats(&iotrace.CacheStats{}))
	}
	return fs
}

// decodeSource times FragmentSource.Next and counts subjects handed
// out still 2-bit packed.
type decodeSource struct {
	srcs   []*blastdb.FragmentSource
	i      int
	tr     *tracer
	n      int64
	packed int64
}

func (d *decodeSource) Next() (*seq.Sequence, error) {
	for d.i < len(d.srcs) {
		sp := d.tr.start("blastdb", "", "next", "")
		s, err := d.srcs[d.i].Next()
		sp.end(0)
		if err == io.EOF {
			d.i++
			continue
		}
		if err != nil {
			return nil, err
		}
		d.n++
		if p, _ := s.Packed2Bit(); p != nil {
			d.packed++
		}
		return s, nil
	}
	return nil, io.EOF
}

// openDB opens the database's fragments on fs as one subject stream,
// timing the alias and fragment opens under the blastdb layer.
func openDB(fs chio.FileSystem, tr *tracer) (*decodeSource, blast.DBInfo, func(), error) {
	sp := tr.start("blastdb", "", "open", dbName)
	defer sp.end(0)
	alias, err := blastdb.ReadAlias(fs, dbName)
	if err != nil {
		return nil, blast.DBInfo{}, nil, err
	}
	src := &decodeSource{tr: tr}
	var frags []*blastdb.Fragment
	closeAll := func() {
		for _, fr := range frags {
			fr.Close()
		}
	}
	for _, fi := range alias.Fragments {
		fr, err := blastdb.OpenFragment(fs, fi.Path)
		if err != nil {
			closeAll()
			return nil, blast.DBInfo{}, nil, err
		}
		frags = append(frags, fr)
		src.srcs = append(src.srcs, fr.Source(0))
	}
	return src, blast.DBInfo{Letters: alias.Letters, Sequences: alias.Seqs}, closeAll, nil
}

// replayResult is one serial replay of a query over a worker's stack.
type replayResult struct {
	res         *blast.Result
	wall        time.Duration
	unattrib    time.Duration // replay time outside every layer span
	decodeSelf  time.Duration // FragmentSource.Next net of its FS calls
	layerSelf   map[string]time.Duration
	packedRatio float64
}

// replay searches q serially (Threads 1) through one worker's stack,
// the budget run: with a tracer, every layer's self time is summed
// under one root span and what no layer covers is unattributed.
func (s searcher) replay(q *seq.Sequence, tr *tracer) (replayResult, error) {
	var rr replayResult
	fs := s.rankFS(tr)
	m := 0
	if tr != nil {
		m = tr.mark()
	}
	start := time.Now()
	root := tr.start("replay", "", "replay", "")
	src, info, closeAll, err := openDB(fs, tr)
	if err != nil {
		root.end(0)
		return rr, err
	}
	p := s.params
	p.Threads = 1
	sp := tr.start("blast", "", "search", "")
	rr.res, err = blast.Search(q, src, info, p)
	sp.end(0)
	closeAll()
	root.end(0)
	rr.wall = time.Since(start)
	if err != nil {
		return rr, err
	}
	rr.packedRatio = ratio(float64(src.packed), float64(src.n))
	if tr != nil {
		spans := tr.since(m)
		var rootID int64
		for _, sp := range spans {
			if sp.Layer == "replay" {
				rootID = sp.ID
			}
		}
		tree := subtree(spans, rootID)
		self := selfTimes(tree)
		rr.layerSelf = map[string]time.Duration{}
		for _, sp := range tree {
			rr.layerSelf[sp.Layer] += self[sp.ID]
			if sp.Layer == "blastdb" && sp.Op == "next" {
				rr.decodeSelf += self[sp.ID]
			}
		}
		rr.unattrib = rr.layerSelf["replay"]
		delete(rr.layerSelf, "replay")
	}
	return rr, nil
}

// kernelResult is one search over pre-decoded subjects.
type kernelResult struct {
	res  *blast.Result
	wall time.Duration
}

// kernel decodes every subject through one worker's untraced stack
// (untimed), then times blast.Search alone over them.
func (s searcher) kernel(q *seq.Sequence, threads int) (kernelResult, error) {
	src, info, closeAll, err := openDB(s.rankFS(nil), nil)
	if err != nil {
		return kernelResult{}, err
	}
	defer closeAll()
	var subjects []*seq.Sequence
	for {
		sq, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return kernelResult{}, err
		}
		subjects = append(subjects, sq)
	}
	p := s.params
	p.Threads = threads
	start := time.Now()
	res, err := blast.Search(q, &blast.SliceSource{Seqs: subjects}, info, p)
	return kernelResult{res: res, wall: time.Since(start)}, err
}

// stragglerRatio is the slowest task over the median task.
func stragglerRatio(out *pblast.Outcome) float64 {
	var ts []float64
	for _, d := range out.TaskTimes {
		ts = append(ts, d.Seconds())
	}
	if len(ts) == 0 {
		return 0
	}
	sort.Float64s(ts)
	return ratio(ts[len(ts)-1], median(ts))
}
