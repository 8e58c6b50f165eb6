package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. For a per-layer metric, moves
// names the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics every workload reports with tracing off.
// Each has a meaning on every workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"ingest_mbases_per_s", "Mbase/s", ""},
	{"scan_mbases_per_s", "Mbase/s", ""},
	{"scan_p50_s", "s", ""},
	{"serial_mbases_per_s", "Mbase/s", ""},
	{"peak_rss_mb", "MiB", ""},
}

// perLayer are the metrics every workload reports from its traced run;
// a layer a workload bypasses reads 0.
var perLayer = []metricDef{
	{"blastd.handler_ms_p50", "ms", "req_hit_p50_ms@service_mix"},
	{"blastd.http_ms_p50", "ms", "req_hit_p50_ms@service_mix"},
	{"blastd.queue_ms_p90", "ms", "req_miss_p90_ms@service_mix"},
	{"blastd.run_ms_p50", "ms", "req_miss_p50_ms,sat_qps@service_mix"},
	{"blastd.hit_ratio", "ratio", "req_hit_p50_ms,sat_qps@service_mix"},
	{"blastd.shared_ratio", "ratio", "req_hit_p50_ms,sat_qps@service_mix"},
	{"pblast.worker_busy_frac", "ratio", "scan_mbases_per_s@scan_*,sat_qps@service_mix"},
	{"pblast.straggler_ratio", "ratio", "scan_p50_s@scan_*"},
	{"pblast.parallel_efficiency", "ratio", "scan_mbases_per_s@scan_*"},
	{"pblast.reassigned", "count", "error_rate@all"},
	{"blastdb.decode_s", "s", "scan_mbases_per_s@scan_pvfs,serial_mbases_per_s@all"},
	{"blastdb.packed_ratio", "ratio", "scan_mbases_per_s@scan_*"},
	{"blast.kernel_s", "s", "scan_mbases_per_s,serial_mbases_per_s@all"},
	{"blast.kernel_mbases_per_s", "Mbase/s", "scan_mbases_per_s,serial_mbases_per_s@all"},
	{"blast.pipeline_speedup", "ratio", "req_miss_p50_ms@service_mix"},
	{"blast.scanned_bases", "count", "blast.kernel_s"},
	{"blast.seed_hits", "count", "blast.kernel_s"},
	{"blast.ungapped_exts", "count", "blast.kernel_s"},
	{"blast.gapped_exts", "count", "blast.kernel_s"},
	{"blast.packed_ext_ratio", "ratio", "blast.kernel_s"},
	{"readahead.read_s", "s", "scan_mbases_per_s@scan_ceft_hotspot"},
	{"readahead.hit_ratio", "ratio", "scan_mbases_per_s@scan_ceft_hotspot"},
	{"readahead.borrow_ratio", "ratio", "scan_mbases_per_s@scan_ceft_hotspot"},
	{"readahead.prefetch_waste_ratio", "ratio", "scan_mbases_per_s@scan_ceft_hotspot"},
	{"collio.read_s", "s", "scan_mbases_per_s@scan_ceft_hotspot"},
	{"collio.merge_ratio", "ratio", "scan_mbases_per_s@scan_ceft_hotspot"},
	{"pvfs.read_s", "s", "scan_p50_s@scan_pvfs"},
	{"ceft.read_s", "s", "scan_p50_s@scan_ceft_hotspot"},
	{"rpcpool.data_rpcs_per_query", "count", "scan_p50_s@scan_*"},
	{"rpcpool.rpc_mean_ms", "ms", "scan_p50_s,error_rate@scan_*"},
	{"rpcpool.retries", "count", "scan_p50_s,error_rate@all"},
	{"rpcpool.errors", "count", "scan_p50_s,error_rate@all"},
	{"pvfs.bytes_per_query", "bytes", "pvfs.read_s,ceft.read_s"},
	{"ceft.reroutes_per_query", "count", "scan_p50_s@scan_ceft_hotspot"},
	{"ceft.hot_bytes_share", "ratio", "scan_p50_s@scan_ceft_hotspot"},
	{"pvfs.write_s", "s", "ingest_mbases_per_s@scan_pvfs,service_mix"},
	{"ceft.write_s", "s", "ingest_mbases_per_s@scan_ceft_hotspot"},
	{"rpcpool.write_rpcs", "count", "ingest_mbases_per_s@all"},
	{"pvfs.iod_store_s", "s", "scan_p50_s@scan_*"},
	{"pvfs.iod_byte_spread", "ratio", "scan_p50_s@scan_ceft_hotspot"},
	{"budget.unattributed_frac", "ratio", "validity: <= 0.10"},
	{"trace.overhead_frac", "ratio", "validity"},
	{"loadgen.lag_p90_ms", "ms", "validity@service_mix"},
}

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	wrong             int64
	values            map[string]float64
	notes             []string // human-readable lines printed before the result
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation with its outcome: err is a failure,
// ok=false a wrong answer.
func (r *report) op(err error, ok bool, what string) {
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		r.note("FAILED %s: %v", what, err)
	case !ok:
		r.failed++
		r.wrong++
		r.note("WRONG ANSWER %s: differs from serial blast.Search", what)
	}
}

// check records a consistency check that is not an operation of the
// workload (traced versus untraced, cached versus first response).
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.wrong++
		r.failed++
		r.note("CHECK FAILED: "+format, args...)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the notes, the metric table and, as the last line, the
// result object holding the metrics of defs.
func (r *report) emit(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		if d.moves != "" {
			fmt.Fprintf(w, "%-32s %14.6g %-8s moves %s\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	fmt.Fprintf(w, "%-32s %14.6g %s\n", "error_rate", float64(r.failed)/float64(r.attempted), "ratio")
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssMiB reads the process's resident set size from /proc/self/statm.
func rssMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// rssPeak samples resident memory every 5 ms while the measured phase
// runs. Start it after set-up with the set-up garbage returned to the
// OS, so the peak is the workload's, not what building its inputs left.
type rssPeak struct {
	stop chan struct{}
	done chan struct{}
	peak float64
	err  error
}

func startRSSPeak() *rssPeak {
	debug.FreeOSMemory()
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			v, err := rssMiB()
			if err != nil {
				p.err = err
				return
			}
			p.peak = max(p.peak, v)
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// end stops the sampler and records peak_rss_mb.
func (p *rssPeak) end(rep *report) error {
	close(p.stop)
	<-p.done
	if p.err != nil {
		return p.err
	}
	rep.set("peak_rss_mb", p.peak)
	return nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// environment is the stamp printed with every result, so records from
// different hosts can be told apart.
type environment struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Trace        bool    `json:"trace"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPU          string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	DBLetters    int64   `json:"db_letters"`
	DBSequences  int64   `json:"db_sequences"`
	Fragments    int     `json:"db_fragments"`
	Queries      int     `json:"distinct_queries"`
	OfferedRate  float64 `json:"offered_rate_per_s,omitempty"`
	MeasuredSecs int     `json:"measured_seconds"`
}

func newEnvironment(workload string, seed uint64, trace bool, secs int) environment {
	return environment{
		Workload: workload, Seed: seed, Trace: trace, MeasuredSecs: secs,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(),
	}
}
