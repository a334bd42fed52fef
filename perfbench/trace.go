package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names recorded by the benchmark around the calls it makes into the
// system. Nothing is traced inside the program.
const (
	spanClientRead   = "client.read"
	spanClientSubmit = "client.submit_epoch"
	spanStageRead    = "stage.read"
	spanStorageDir   = "storage.dir"
)

var spanNames = []string{spanClientRead, spanClientSubmit, spanStageRead, spanStorageDir}

// span is one timed call. Spans of one sample read share a trace id, the
// pair (epoch, sample); a plan submission has sample -1. Times are
// nanoseconds since the tracer's base. A storage op that serves several
// samples (one vectored read) is recorded once per sample with a shared op.
type span struct {
	name       string
	epoch      int32
	sample     int32
	op         int64
	start, end int64
}

func (s span) key() traceKey { return traceKey{s.epoch, s.sample} }

type traceKey struct{ epoch, sample int32 }

// tracer holds a traced phase's spans in memory until the phase ends.
// Consumers append to their own slices and hand them over at the end;
// storage spans from producer goroutines go through the mutex.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	opLat []int64 // latency of each storage op, ns
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

func (t *tracer) add(spans []span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// addOp records one storage op that served the given samples.
func (t *tracer) addOp(name string, epoch int32, samples []int32, start, end time.Time) {
	s, e := t.ns(start), t.ns(end)
	t.mu.Lock()
	t.opLat = append(t.opLat, e-s)
	op := int64(len(t.opLat))
	for _, smp := range samples {
		t.spans = append(t.spans, span{name: name, epoch: epoch, sample: smp, op: op, start: s, end: e})
	}
	t.mu.Unlock()
}

// selfTimes splits every read's critical path by span: a span's self time
// is the part of its interval, clipped to its parent's, that its children
// do not cover. Roots are the consumer calls (rootName) and plan
// submissions; every other span is a child of the root with its trace id.
// It returns the summed self time per span name and the number of reads,
// and fails unless the self times of each read add up to that read's
// duration.
func selfTimes(spans []span, rootName string) (self map[string]int64, reads int, err error) {
	children := make(map[traceKey][]span)
	for _, s := range spans {
		if s.name != rootName && s.name != spanClientSubmit {
			children[s.key()] = append(children[s.key()], s)
		}
	}
	self = make(map[string]int64)
	var clipped [][2]int64
	for _, r := range spans {
		switch r.name {
		case spanClientSubmit:
			self[r.name] += r.end - r.start
			continue
		case rootName:
		default:
			continue
		}
		reads++
		dur := r.end - r.start
		clipped = clipped[:0]
		var childSelf int64
		for _, c := range children[r.key()] {
			lo, hi := max(c.start, r.start), min(c.end, r.end)
			if hi <= lo {
				continue
			}
			clipped = append(clipped, [2]int64{lo, hi})
			self[c.name] += hi - lo
			childSelf += hi - lo
		}
		rootSelf := dur - coverage(clipped)
		self[r.name] += rootSelf
		if rootSelf+childSelf != dur {
			return nil, 0, fmt.Errorf("trace %v: self times sum to %dns, %s span is %dns", r.key(), rootSelf+childSelf, rootName, dur)
		}
	}
	return self, reads, nil
}

// coverage is the length of the union of intervals.
func coverage(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		if first || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
			first = false
			continue
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeSpans writes spans as JSON lines; a child's parent is the line
// number (from 0) of its read's root span.
func writeSpans(path string, spans []span, rootName string) error {
	roots := make(map[traceKey]int)
	for i, s := range spans {
		if s.name == rootName {
			roots[s.key()] = i
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string `json:"name"`
		Epoch  int32  `json:"epoch"`
		Sample int32  `json:"sample"`
		Op     int64  `json:"op,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int    `json:"parent"`
	}
	for _, s := range spans {
		parent := -1
		if p, ok := roots[s.key()]; ok && s.name != rootName && s.name != spanClientSubmit {
			parent = p
		}
		if err := enc.Encode(line{s.name, s.epoch, s.sample, s.op, s.start, s.end, parent}); err != nil {
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
