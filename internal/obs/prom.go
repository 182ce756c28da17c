package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/detmap"
)

// ContentType is the Prometheus text exposition format version WriteProm
// emits.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteProm writes every registered metric in the Prometheus text format,
// sorted by metric name so the output is stable across runs (the map of
// metrics is traversed through sorted keys, per the determinism contract).
// Counters render as integers; gauges and histogram sums use the shortest
// float representation. Histogram buckets are cumulative with "le" labels,
// ending in the implicit +Inf bucket that always equals _count.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := detmap.SortedKeys(r.metrics)
	ms := make([]*metric, len(names))
	for i, name := range names {
		ms[i] = r.metrics[name]
	}
	r.mu.Unlock()

	var buf bytes.Buffer
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(&buf, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		}
		fmt.Fprintf(&buf, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&buf, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(&buf, "%s %s\n", m.name, formatFloat(m.gauge.Value()))
		case kindHistogram:
			h := m.hist
			var cum uint64
			for i, ub := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&buf, "%s_bucket{le=%q} %d\n", m.name, formatFloat(ub), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&buf, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&buf, "%s_sum %s\n", m.name, formatFloat(h.Sum()))
			fmt.Fprintf(&buf, "%s_count %d\n", m.name, cum)
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(help string) string { return helpEscaper.Replace(help) }
