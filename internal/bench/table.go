// Package bench implements the experiment harness that regenerates
// every measurement in the paper's evaluation (§5) plus the ablations
// DESIGN.md calls out: Figure 4 (messages vs. b-peers), steady-state
// RTT, worst-case failover RTT, throughput scaling, discovery
// precision/recall, backend failover, QoS selection and Bully election
// cost. Each experiment returns a Table whose rows mirror what the
// paper reports and, through its entry in Experiments, a Report (the
// table, structured metrics and — for E12–E14 — acceptance bounds);
// cmd/whisper-bench loops over that list, cmd/benchgate checks a
// written report against its bounds, and EXPERIMENTS.md records
// paper-vs-measured values. Performance claims about the request path
// are benchmarks/e2e's, not this package's.
package bench

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	// Title names the experiment (e.g. "Figure 4").
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes carry free-form observations appended below the table.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends an observation.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("== " + t.Title + " ==\n")
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && len(cell) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total > 2 {
		b.WriteString(strings.Repeat("-", total-2) + "\n")
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row + data rows);
// notes are emitted as trailing comment lines.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	writeCSVRow(t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("# " + n + "\n")
	}
	return b.String()
}
