package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// EscapeLabelValue renders a label value per the Prometheus text
// exposition format 0.0.4: backslash, double-quote and newline are
// escaped; everything else passes through. This is the one copy of the
// escaping logic both daemons used to hand-roll.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only — quotes
// are legal in help text).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// formatValue renders a sample value. Counters hold integral values and
// render without an exponent; gauges use the shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(uint64(v)) && v >= 0 && v < 1e15 {
		return strconv.FormatUint(uint64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {name="value",...} or nothing for the empty set.
// extra ("le" for histogram buckets) is appended last when non-empty.
func writeLabels(w *bufio.Writer, names, vals []string, extraName, extraVal string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	w.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(n)
		w.WriteString(`="`)
		w.WriteString(EscapeLabelValue(vals[i]))
		w.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(extraName)
		w.WriteString(`="`)
		w.WriteString(extraVal)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// WritePrometheus writes every registered family in text exposition
// format 0.0.4: families in name order, HELP and TYPE once per family,
// series in deterministic label order. Scrape hooks run first, outside
// the lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := r.onScrape // append-only: the hooks under this header never change
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, name := range names {
		f := r.fams[name]
		if len(f.series) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range f.sortedKeys() {
			s := f.series[k]
			switch {
			case s.h != nil:
				writeHistogramSeries(bw, f, s)
			case s.c != nil:
				writeSample(bw, f.name, f.labels, s.labelVals, float64(s.c.Value()))
			case s.g != nil:
				writeSample(bw, f.name, f.labels, s.labelVals, s.g.Value())
			case s.fn != nil:
				writeSample(bw, f.name, f.labels, s.labelVals, s.fn())
			}
		}
	}
	return bw.Flush()
}

func writeSample(w *bufio.Writer, name string, labels, vals []string, v float64) {
	w.WriteString(name)
	writeLabels(w, labels, vals, "", "")
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// writeHistogramSeries emits the cumulative _bucket lines, _sum and
// _count for one histogram series. Only buckets where the cumulative
// count changes are emitted (plus the mandatory +Inf) — legal per the
// format, and it keeps a ~122-bucket grid compact when most buckets are
// empty.
func writeHistogramSeries(w *bufio.Writer, f *family, s *series) {
	snap := s.h.snapshot()
	var cum uint64
	for i := 0; i < numBuckets-1; i++ {
		if snap.counts[i] == 0 {
			continue // cumulative count unchanged; sparse emission is legal
		}
		cum += snap.counts[i]
		le := strconv.FormatFloat(float64(bucketBoundNanos(i))/1e9, 'g', -1, 64)
		w.WriteString(f.name)
		w.WriteString("_bucket")
		writeLabels(w, f.labels, s.labelVals, "le", le)
		w.WriteByte(' ')
		w.WriteString(strconv.FormatUint(cum, 10))
		w.WriteByte('\n')
	}
	cum += snap.counts[numBuckets-1]
	w.WriteString(f.name)
	w.WriteString("_bucket")
	writeLabels(w, f.labels, s.labelVals, "le", "+Inf")
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(cum, 10))
	w.WriteByte('\n')

	w.WriteString(f.name)
	w.WriteString("_sum")
	writeLabels(w, f.labels, s.labelVals, "", "")
	w.WriteByte(' ')
	w.WriteString(strconv.FormatFloat(float64(snap.sum)/1e9, 'g', -1, 64))
	w.WriteByte('\n')

	w.WriteString(f.name)
	w.WriteString("_count")
	writeLabels(w, f.labels, s.labelVals, "", "")
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(cum, 10))
	w.WriteByte('\n')
}

// Handler returns the /metrics endpoint: text exposition of the whole
// registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
