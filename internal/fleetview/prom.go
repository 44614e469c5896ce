// Package fleetview turns daemon admin endpoints (/metrics Prometheus
// text, /timeseries rollup JSON) and recorded flight-recorder files
// into one terminal dashboard model. cmd/anor-top is the consumer; the
// package itself renders plain text so tests can golden the output and
// `anor-top -once` works on a dumb pipe.
package fleetview

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// PromSample is one exposition line: a metric child with its labels.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromMetrics is a parsed /metrics page.
type PromMetrics struct {
	samples []PromSample
}

// ParseProm parses the Prometheus text exposition format (version
// 0.0.4) as written by obs.WritePrometheus: HELP/TYPE comments are
// skipped, each remaining line is `name{k="v",...} value` with
// backslash-escaped label values. Timestamps are not supported (the obs
// writer never emits them).
func ParseProm(r io.Reader) (*PromMetrics, error) {
	m := &PromMetrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		s, err := parsePromLine(text)
		if err != nil {
			return nil, fmt.Errorf("fleetview: /metrics line %d: %w", line, err)
		}
		m.samples = append(m.samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fleetview: reading /metrics: %w", err)
	}
	return m, nil
}

func parsePromLine(text string) (PromSample, error) {
	s := PromSample{}
	rest := text
	if brace := strings.IndexByte(rest, '{'); brace >= 0 {
		s.Name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return s, fmt.Errorf("unterminated label set in %q", text)
		}
		labels, err := parseLabels(rest[brace+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return s, fmt.Errorf("no value in %q", text)
		}
		s.Name = rest[:sp]
		rest = strings.TrimSpace(rest[sp:])
	}
	// A trailing timestamp would appear as a second field; obs never
	// writes one, so any remaining space is an error worth surfacing.
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, text)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label pair near %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		rest := body[eq+2:]
		var sb strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					sb.WriteByte('\n')
				default:
					sb.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value near %q", body)
		}
		labels[key] = sb.String()
		body = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		body = strings.TrimSpace(body)
	}
	return labels, nil
}

func (s PromSample) matches(name string, pairs []string) bool {
	if s.Name != name {
		return false
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		if s.Labels[pairs[i]] != pairs[i+1] {
			return false
		}
	}
	return true
}

// Value returns the first sample matching name and every given
// key,value label pair. Nil-safe.
func (m *PromMetrics) Value(name string, pairs ...string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	for _, s := range m.samples {
		if s.matches(name, pairs) {
			return s.Value, true
		}
	}
	return 0, false
}

// Total sums every child of name matching the label pairs (e.g. a
// per-job CounterVec summed across jobs) and reports how many matched.
func (m *PromMetrics) Total(name string, pairs ...string) (float64, int) {
	if m == nil {
		return 0, 0
	}
	var sum float64
	n := 0
	for _, s := range m.samples {
		if s.matches(name, pairs) {
			sum += s.Value
			n++
		}
	}
	return sum, n
}

// Quantile estimates quantile q (0..1) with obs.BucketQuantile from the
// cumulative `family_bucket` le series, summing children across any
// non-le labels not pinned by pairs. It reports false when the family
// has no finite bucket or no observations.
func (m *PromMetrics) Quantile(family string, q float64, pairs ...string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	cum := map[float64]float64{} // le → summed cumulative count
	for _, s := range m.samples {
		if !s.matches(family+"_bucket", pairs) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += s.Value
	}
	if len(cum) == 0 {
		return 0, false
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	total := cum[les[len(les)-1]]
	if math.IsInf(les[len(les)-1], 1) {
		les = les[:len(les)-1]
	}
	counts := make([]float64, len(les))
	for i, le := range les {
		counts[i] = cum[le]
	}
	v := obs.BucketQuantile(les, counts, total, q)
	return v, !math.IsNaN(v)
}
