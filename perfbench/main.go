// Command perfbench is the repository's wall-clock benchmark. It drives
// real clients closed-loop through the real serving chain on real files
// for one named workload and prints every end-to-end metric (--trace 0)
// or every per-layer metric (--trace 1), ending with one JSON line. See
// README.md in this directory for the workloads, the metrics and the
// layer each one measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one named traffic mix over one fixture.
type workload struct {
	name         string
	layout       layout
	compressible bool
	rootSpan     string // the consumer call each read's trace hangs off
	// warmup is driven before every timed region, so the pools and the
	// caches have settled.
	warmup time.Duration
	open   func(fx *fixture, dir string, seed int64, tr *tracer) (system, error)
}

var workloads = []workload{
	{"train-uds", filePerSample, false, spanClientRead, time.Second, openTrainUDS},
	{"train-packed", packed, false, spanStageRead, time.Second, openPacked},
	// The two caches take several scan passes to settle.
	{"cotenant-uds", filePerSample, true, spanClientRead, 4 * time.Second, openCotenant},
}

const (
	// buildDir holds build outputs, fixtures and span files; it is
	// ignored by git.
	buildDir = ".bench_build"
	// A run sets the system up at least minSetups times and until it has
	// spent setupBudget doing so (at most maxSetups times); setup_s is the
	// median. Setting up train-packed takes tens of microseconds, so it
	// needs many repetitions for a steady median.
	minSetups   = 7
	maxSetups   = 1001
	setupBudget = time.Second
	// windows splits a timed region; each end-to-end metric is the median
	// of its per-window values, so a short stall on a shared machine moves
	// one window, not the result.
	windows = 20
)

func main() {
	name := flag.String("workload", "", "workload name: train-uds, train-packed or cotenant-uds")
	seed := flag.Int64("seed", 1, "seed for the dataset and every access order")
	seconds := flag.Int("seconds", 10, "length of the timed region in seconds")
	traced := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: untraced and traced halves, per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		if res == nil {
			os.Exit(1)
		}
	}
	for _, m := range res.table {
		fmt.Printf("%-40s %16.4f %s\n", m.name, m.value, m.unit)
	}
	out, jerr := json.Marshal(res.result)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if err != nil || !res.result.Correct {
		os.Exit(1)
	}
}

// run generates the fixture, measures, and reports. A non-nil result with
// a non-nil error is a run that completed but failed its audit.
func run(w *workload, seed int64, d time.Duration, traced bool) (*report, error) {
	fmt.Printf("machine %s\n", machine())
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	fx, err := newFixture(root, seed, w.layout, w.compressible)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	if !traced {
		u, err := measure(w, fx, root, seed, true, d, nil)
		if err != nil {
			return nil, err
		}
		return endToEnd(u)
	}
	u, err := measure(w, fx, root, seed, false, d/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	t, err := measure(w, fx, root, seed, false, d/2, tr)
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	if err := writeSpans(filepath.Join(buildDir, "spans-"+w.name+".jsonl"), tr.spans, w.rootSpan); err != nil {
		return nil, err
	}
	return perLayer(w, u, t, tr)
}

// phase is one set-up system measured over one timed region.
type phase struct {
	setup          []time.Duration
	load           load     // the whole timed region
	windows        []window // its consecutive parts
	before, after  layerCounters
	p0, p1         procSnap
	outstanding    int64 // pooled buffers left after close
	audit          error
	storageOps     int64 // traced: calls into DirBackend
	storageLatency []int64
}

// measure sets the system up (repeatedly when repeat is set, keeping the
// last instance), warms it, measures one timed region of length d, then
// tears it down and audits it.
func measure(w *workload, fx *fixture, root string, seed int64, repeat bool, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	var sys system
	start := time.Now()
	for {
		dir, err := os.MkdirTemp(root, "setup-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := w.open(fx, dir, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ph.setup = append(ph.setup, time.Since(t0))
		n := len(ph.setup)
		if !repeat || n == maxSetups || (n >= minSetups && time.Since(start) >= setupBudget) {
			sys = s
			break
		}
		if _, err := s.close(); err != nil {
			return nil, fmt.Errorf("setup %d teardown: %w", n, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	err := timed(sys, ph, w.warmup, d, tr)
	outstanding, audit := sys.close()
	if err != nil {
		return nil, errors.Join(err, audit)
	}
	ph.outstanding, ph.audit = outstanding, audit
	if tr != nil {
		ph.storageOps, ph.storageLatency = sys.storageTrace()
	}
	return ph, nil
}

// window is one consecutive part of a timed region.
type window struct {
	load load
	cpu  time.Duration
}

// timed warms sys and then measures one region of length d in windows,
// sampling the process at window edges and the layer counters at the
// region's edges only.
func timed(sys system, ph *phase, warmup, d time.Duration, tr *tracer) error {
	if err := resetPeakRSS(); err != nil {
		return err
	}
	if _, err := sys.drive(warmup, nil); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}
	runtime.GC()
	var err error
	if ph.before, err = sys.counters(); err != nil {
		return err
	}
	if ph.p0, err = readProc(); err != nil {
		return err
	}
	prev := ph.p0
	var parts []load
	for i := 0; i < windows; i++ {
		ld, err := sys.drive(d/windows, tr)
		if err != nil {
			return err
		}
		p, err := readProc()
		if err != nil {
			return err
		}
		ph.windows = append(ph.windows, window{load: ld, cpu: p.cpu - prev.cpu})
		parts = append(parts, ld)
		prev = p
	}
	ph.p1 = prev
	ph.load = merge(parts)
	ph.after, err = sys.counters()
	return err
}

// machine describes where the run happened. It is printed for the record
// only, so a missing kernel release is left empty.
func machine() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	})
	return string(b)
}
