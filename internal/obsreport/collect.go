package obsreport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"pario/internal/promtext"
	"pario/internal/telemetry"
)

// Sample is one parsed metric sample: a family name, its label set,
// and the value at collect time. It is promtext's type — the parser
// is shared with the live time-series layer (internal/tsdb), so both
// see identical shapes from one implementation.
type Sample = promtext.Sample

// SpanRecord is a span plus the process it was collected from.
type SpanRecord struct {
	telemetry.Span
	Process string
}

// Snapshot is everything collected from one process: its metric
// samples and its recent spans. A failed collection carries Err and
// empty data; the report builder records the failure and moves on.
type Snapshot struct {
	Process string
	Source  string
	Samples []Sample
	Spans   []SpanRecord
	Err     error
}

// Sum adds the values of every sample of family name whose labels are
// a superset of match (nil match sums the whole family).
func (s *Snapshot) Sum(name string, match map[string]string) float64 {
	var total float64
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		if !labelsMatch(sm.Labels, match) {
			continue
		}
		total += sm.Value
	}
	return total
}

// PerLabel folds family name into a map keyed by the given label,
// summing samples that share a key (e.g. request counters split by op
// and outcome fold into one count per server).
func (s *Snapshot) PerLabel(name, labelKey string) map[string]float64 {
	var out map[string]float64
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		key, ok := sm.Labels[labelKey]
		if !ok {
			continue
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[key] += sm.Value
	}
	return out
}

func labelsMatch(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// LocalSnapshot captures a process's own registry and tracer without
// going through HTTP. The registry is rendered to Prometheus text and
// re-parsed so local and scraped snapshots are byte-for-byte the same
// shape. reg and tr may each be nil.
func LocalSnapshot(process string, reg *telemetry.Registry, tr *telemetry.Tracer) Snapshot {
	snap := Snapshot{Process: process, Source: "in-process"}
	if reg != nil {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		samples, err := ParsePrometheus(&buf)
		if err != nil {
			snap.Err = err
			return snap
		}
		snap.Samples = samples
	}
	for _, sp := range tr.Recent() {
		snap.Spans = append(snap.Spans, SpanRecord{Span: sp, Process: process})
	}
	return snap
}

// ScrapeTimeout bounds each per-process HTTP collection.
const ScrapeTimeout = 5 * time.Second

// Scrape collects a snapshot from a process's debug endpoint
// ("host:port" or a full http:// URL). Failures are reported in the
// returned Snapshot's Err, never as a panic or a lost process entry.
func Scrape(ctx context.Context, process, addr string) Snapshot {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	snap := Snapshot{Process: process, Source: base}

	ctx, cancel := context.WithTimeout(ctx, ScrapeTimeout)
	defer cancel()

	body, err := httpGet(ctx, base+"/metrics")
	if err != nil {
		snap.Err = fmt.Errorf("obsreport: scrape %s: %w", process, err)
		return snap
	}
	snap.Samples, err = ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		snap.Err = fmt.Errorf("obsreport: scrape %s: %w", process, err)
		return snap
	}

	body, err = httpGet(ctx, base+"/debug/traces")
	if err != nil {
		snap.Err = fmt.Errorf("obsreport: scrape %s: %w", process, err)
		return snap
	}
	spans, err := ParseTraces(body)
	if err != nil {
		snap.Err = fmt.Errorf("obsreport: scrape %s: %w", process, err)
		return snap
	}
	for _, sp := range spans {
		snap.Spans = append(snap.Spans, SpanRecord{Span: sp, Process: process})
	}
	return snap
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 32<<20))
}

// ParsePrometheus parses text-exposition metric lines
// (`name{k="v",...} value`) into samples. It delegates to the shared
// promtext parser; see that package for the accepted grammar.
func ParsePrometheus(r io.Reader) ([]Sample, error) {
	return promtext.Parse(r)
}

// tracesDoc mirrors the /debug/traces wire shape (telemetry.spanJSON):
// hex-encoded IDs, microsecond durations.
type tracesDoc struct {
	Spans []struct {
		TraceID    string            `json:"trace_id"`
		SpanID     string            `json:"span_id"`
		Parent     string            `json:"parent_id"`
		Name       string            `json:"name"`
		Server     string            `json:"server"`
		Start      time.Time         `json:"start"`
		DurationUS int64             `json:"duration_us"`
		Bytes      int64             `json:"bytes"`
		Err        string            `json:"err"`
		Attrs      map[string]string `json:"attrs"`
	} `json:"spans"`
}

// ParseTraces decodes a /debug/traces response body back into spans.
func ParseTraces(body []byte) ([]telemetry.Span, error) {
	var doc tracesDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding traces: %w", err)
	}
	out := make([]telemetry.Span, 0, len(doc.Spans))
	for i, js := range doc.Spans {
		traceID, err := parseHexID(js.TraceID)
		if err != nil {
			return nil, fmt.Errorf("span %d trace_id: %w", i, err)
		}
		spanID, err := parseHexID(js.SpanID)
		if err != nil {
			return nil, fmt.Errorf("span %d span_id: %w", i, err)
		}
		var parent uint64
		if js.Parent != "" {
			if parent, err = parseHexID(js.Parent); err != nil {
				return nil, fmt.Errorf("span %d parent_id: %w", i, err)
			}
		}
		out = append(out, telemetry.Span{
			TraceID:  traceID,
			SpanID:   spanID,
			Parent:   parent,
			Name:     js.Name,
			Server:   js.Server,
			Start:    js.Start,
			Duration: time.Duration(js.DurationUS) * time.Microsecond,
			Bytes:    js.Bytes,
			Err:      js.Err,
			Attrs:    js.Attrs,
		})
	}
	return out, nil
}

func parseHexID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad span ID %q: %w", s, err)
	}
	return id, nil
}

// MergePerLabel folds a per-label family across snapshots, summing
// values that share a key.
func MergePerLabel(snaps []Snapshot, name, labelKey string) map[string]float64 {
	out := make(map[string]float64)
	for i := range snaps {
		for k, v := range snaps[i].PerLabel(name, labelKey) {
			out[k] += v
		}
	}
	return out
}

// sortedKeys returns the map's keys in sorted order, for deterministic
// report output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
