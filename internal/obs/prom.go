package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format: its Snapshot — the one walk of the registry —
// through WriteMetricPoints.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteMetricPoints(w, r.Snapshot().Metrics)
}

// WriteMetricPoints renders a point list (a Snapshot's Metrics, or a
// merged fleet view) in the Prometheus text exposition format (version
// 0.0.4): histograms as cumulative `_bucket{le=...}` plus `_sum` and
// `_count`. Points must arrive grouped by name — `# HELP` / `# TYPE`
// headers are emitted whenever the name changes, taken from the
// group's first point. Labels render in sorted order, so output is
// deterministic for identical input and the format is golden-testable.
func WriteMetricPoints(w io.Writer, points []MetricPoint) error {
	bw := bufio.NewWriter(w)
	prev := ""
	for _, p := range points {
		if p.Name != prev {
			prev = p.Name
			if p.Help != "" {
				bw.WriteString("# HELP ")
				bw.WriteString(p.Name)
				bw.WriteByte(' ')
				bw.WriteString(escapeHelp(p.Help))
				bw.WriteByte('\n')
			}
			bw.WriteString("# TYPE ")
			bw.WriteString(p.Name)
			bw.WriteByte(' ')
			bw.WriteString(p.Type)
			bw.WriteByte('\n')
		}
		labels := sortedPointLabels(p.Labels)
		if h := p.Histogram; h != nil {
			for _, b := range h.Buckets {
				writeSample(bw, p.Name+"_bucket", labels, formatLE(b.LE), float64(b.Count))
			}
			writeSample(bw, p.Name+"_bucket", labels, "+Inf", float64(h.Count))
			writeSample(bw, p.Name+"_sum", labels, "", h.Sum)
			writeSample(bw, p.Name+"_count", labels, "", float64(h.Count))
			continue
		}
		v := 0.0
		if p.Value != nil {
			v = *p.Value
		}
		writeSample(bw, p.Name, labels, "", v)
	}
	return bw.Flush()
}

// sortedPointLabels converts a point's label map to a sorted slice.
func sortedPointLabels(m map[string]string) []Label {
	if len(m) == 0 {
		return nil
	}
	out := make([]Label, 0, len(m))
	for k, v := range m {
		out = append(out, Label{Name: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSample emits one line: name{labels[,le="?"]} value. le, when
// non-empty, is appended as the histogram bucket bound.
func writeSample(bw *bufio.Writer, name string, labels []Label, le string, v float64) {
	bw.WriteString(name)
	if len(labels) > 0 || le != "" {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l.Name)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(`le="`)
			bw.WriteString(le)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatValue(v))
	bw.WriteByte('\n')
}

// formatValue renders integers without an exponent and everything else
// in Go's shortest float form, matching common Prometheus client
// output.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLE(b float64) string {
	if math.IsInf(b, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
