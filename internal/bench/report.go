package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"whisper/internal/metrics"
)

// Metric is one measured quantity in machine-readable form. Latency
// distributions carry nanosecond percentiles; scalar metrics (e.g.
// throughput) carry only Mean with their own unit.
type Metric struct {
	// Unit names the measurement unit ("ns", "req/s", "count", ...).
	Unit string `json:"unit"`
	// Count is the number of observations behind the metric.
	Count int `json:"count,omitempty"`
	// Mean is the average (or the value itself for scalar metrics).
	Mean float64 `json:"mean"`
	// P50, P95, P99 are distribution percentiles (zero for scalars).
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
	// Min and Max bound the observations.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// Report is the machine-readable form of one experiment run, written
// as BENCH_<experiment>.json. It carries the human-facing table
// verbatim plus structured metrics for tooling (the bench-gate CI job
// consumes the same shape for `go test -bench` baselines via the gate
// types).
type Report struct {
	// Experiment is the runner name ("rtt", "figure4", ...).
	Experiment string `json:"experiment"`
	// Title is the table title ("Figure 4", ...).
	Title string `json:"title"`
	// Columns/Rows/Notes mirror the printed Table.
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// Metrics holds structured distributions keyed by name.
	Metrics map[string]Metric `json:"metrics,omitempty"`
	// Bounds are the experiment's acceptance rows over Metrics; see
	// CheckBounds.
	Bounds []Bound `json:"bounds,omitempty"`
	// Trailer is printed below the table in table format (E3's span
	// tree under -trace); it is not part of the written report.
	Trailer string `json:"-"`
}

// Bound is one acceptance row of a report: the Mean of Metric must
// stand in relation Op (">=", "<=" or ">") to Limit + Factor × the Mean
// of metric Of — a constant, a multiple of a baseline measured in the
// same run, or both. The experiment emits its rows from its typed
// result, so a gated report carries its own acceptance criteria and one
// checker serves every experiment.
type Bound struct {
	// Name says what the row protects, for the finding.
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Limit  float64 `json:"limit"`
	Factor float64 `json:"factor,omitempty"`
	Of     string  `json:"of,omitempty"`
}

// AddBound appends an absolute acceptance row.
func (r *Report) AddBound(name, metric, op string, limit float64) {
	r.Bounds = append(r.Bounds, Bound{Name: name, Metric: metric, Op: op, Limit: limit})
}

// AddRelativeBound appends a row comparing metric against factor × of.
func (r *Report) AddRelativeBound(name, metric, op string, factor float64, of string) {
	r.Bounds = append(r.Bounds, Bound{Name: name, Metric: metric, Op: op, Factor: factor, Of: of})
}

// CheckBounds evaluates every bound row against the report's own
// metrics and returns one finding per row that does not hold (empty =
// the gate passes). A row naming a metric the report lacks is a
// finding, and so is a report with no rows: a gate that checked nothing
// must not pass.
func (r *Report) CheckBounds() []string {
	if len(r.Bounds) == 0 {
		return []string{"report carries no bounds: nothing to hold it to"}
	}
	var findings []string
	for _, b := range r.Bounds {
		// mean reads one referenced metric, reporting its absence.
		mean := func(key string) (float64, bool) {
			m, ok := r.Metrics[key]
			if !ok {
				findings = append(findings, fmt.Sprintf("%s: metric %s is not in the report", b.Name, key))
			}
			return m.Mean, ok
		}
		got, ok := mean(b.Metric)
		if !ok {
			continue
		}
		limit, basis := b.Limit, ""
		if b.Of != "" {
			of, ok := mean(b.Of)
			if !ok {
				continue
			}
			limit, basis = limit+b.Factor*of, fmt.Sprintf(" (%g + %g x %s)", b.Limit, b.Factor, b.Of)
		}
		// An unknown operator holds for nothing, so it is a finding too.
		holds := map[string]bool{">=": got >= limit, "<=": got <= limit, ">": got > limit}[b.Op]
		if !holds {
			findings = append(findings, fmt.Sprintf("%s: %s = %.6g, want %s %.6g%s", b.Name, b.Metric, got, b.Op, limit, basis))
		}
	}
	return findings
}

// Table returns the printable form of the report.
func (r *Report) Table() *Table {
	return &Table{Title: r.Title, Columns: r.Columns, Rows: r.Rows, Notes: r.Notes}
}

// NewReport wraps a finished experiment table.
func NewReport(experiment string, t *Table) *Report {
	return &Report{
		Experiment: experiment,
		Title:      t.Title,
		Columns:    t.Columns,
		Rows:       t.Rows,
		Notes:      t.Notes,
		Metrics:    make(map[string]Metric),
	}
}

// AddHistogram records a latency distribution (nil histograms are
// skipped so runners can pass through optional results).
func (r *Report) AddHistogram(name string, h *metrics.Histogram) {
	if h == nil || h.Count() == 0 {
		return
	}
	r.Metrics[name] = Metric{
		Unit:  "ns",
		Count: h.Count(),
		Mean:  float64(h.Mean()),
		P50:   float64(h.Percentile(50)),
		P95:   float64(h.Percentile(95)),
		P99:   float64(h.Percentile(99)),
		Min:   float64(h.Min()),
		Max:   float64(h.Max()),
	}
}

// AddScalar records a single-valued metric such as throughput.
func (r *Report) AddScalar(name, unit string, value float64) {
	r.Metrics[name] = Metric{Unit: unit, Mean: value}
}

// WriteFile writes the report as BENCH_<experiment>.json under dir
// and returns the path.
func (r *Report) WriteFile(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: marshal report: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", r.Experiment))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: write report: %w", err)
	}
	return path, nil
}

// LoadReport reads a BENCH_<exp>.json report file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse report %s: %w", path, err)
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]Metric)
	}
	return &r, nil
}
