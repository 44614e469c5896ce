package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed stage of one cycle, iteration or run, recorded by the
// harness around a call into a layer. Times are nanoseconds since the
// recorder was created; Parent indexes the recorder's span list (-1 for a
// root); spans of one cycle share ID.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      int    `json:"id"`
}

// recorder keeps spans in memory until the run ends. It is used from the
// single goroutine that drives a section.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// add records a span and returns its index, for use as a parent.
func (r *recorder) add(name string, start, end time.Time, parent, id int) int {
	r.spans = append(r.spans, span{
		Name: name, StartNs: start.Sub(r.base).Nanoseconds(), EndNs: end.Sub(r.base).Nanoseconds(),
		Parent: parent, ID: id,
	})
	return len(r.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNs - s.StartNs - covered
	}
	return out
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e6
	}
	return out
}

// writeJSONL writes one span per line, with its self time.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		row := struct {
			span
			SelfNs int64 `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
