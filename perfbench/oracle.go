package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"pario/internal/blast"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/seq"
	"pario/internal/workload"
)

// inputs are everything a workload derives from its seed: the FASTA
// text, an in-memory formatted copy of the database for the serial
// oracle, and the query extractor. Building them is not timed.
type inputs struct {
	fasta   []byte
	mem     *chio.MemFS
	letters int64
	seqs    int64
	seed    uint64
}

func makeInputs(letters int64, fragments int, seed uint64) (*inputs, error) {
	var buf bytes.Buffer
	if _, _, err := workload.WriteFasta(&buf, workload.NtLike(dbName, letters, seed)); err != nil {
		return nil, err
	}
	in := &inputs{fasta: buf.Bytes(), mem: chio.NewMemFS(), seed: seed}
	alias, err := core.FormatDatabase(in.mem, dbName, seq.Nucleotide, fragments, bytes.NewReader(in.fasta))
	if err != nil {
		return nil, fmt.Errorf("formatting oracle copy: %w", err)
	}
	in.letters, in.seqs = alias.Letters, alias.Seqs
	return in, nil
}

// query extracts query number i of the given length from the
// database; the same seed and i always give the same query.
func (in *inputs) query(i, length int) (*seq.Sequence, error) {
	return core.ExtractQuery(in.mem, dbName, length, in.seed*1_000_003+uint64(i)+1)
}

// oracle is the serial reference: core.SerialSearch at Threads 1 over
// the in-memory copy, computed once per distinct query. Its median time
// per query gives the serial_mbases_per_s metric.
type oracle struct {
	in     *inputs
	params blast.Params
	refs   map[string]*blast.Result
	times  []float64 // seconds per distinct query
}

func newOracle(in *inputs, p blast.Params) *oracle {
	p.Threads = 1
	return &oracle{in: in, params: p, refs: map[string]*blast.Result{}}
}

func queryKey(q *seq.Sequence) string { return q.ID + "\x00" + string(q.Data) }

func (o *oracle) ref(q *seq.Sequence) (*blast.Result, error) {
	k := queryKey(q)
	if r, ok := o.refs[k]; ok {
		return r, nil
	}
	start := time.Now()
	r, err := core.SerialSearch(o.in.mem, dbName, q, o.params)
	o.times = append(o.times, time.Since(start).Seconds())
	if err != nil {
		return nil, fmt.Errorf("serial oracle: %w", err)
	}
	o.refs[k] = r
	return r, nil
}

// mbasesPerSec is the oracle's search rate on its median query.
func (o *oracle) mbasesPerSec() float64 {
	return float64(o.in.letters) / median(o.times) / 1e6
}

// answer is the part of a result every configuration must reproduce
// exactly. Search statistics are left out: a merged parallel result
// sums per-fragment counters that the serial engine does not split.
type answer struct {
	Program  blast.Program
	QueryID  string
	QueryLen int
	Hits     []blast.Hit
}

func answerOf(r *blast.Result) answer {
	return answer{Program: r.Program, QueryID: r.QueryID, QueryLen: r.QueryLen, Hits: r.Hits}
}

// sameAnswer reports whether got carries exactly the oracle's answer.
func sameAnswer(want, got *blast.Result) bool {
	return got != nil && reflect.DeepEqual(answerOf(want), answerOf(got))
}

// viaJSON returns r as a client decoding a blastd response sees it, so
// a reference compares with DeepEqual against a decoded response.
func viaJSON(r *blast.Result) (*blast.Result, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var out blast.Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
