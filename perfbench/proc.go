package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is the process as the kernel and the Go runtime see it, read at
// one edge of a timed region. One collector serves every workload.
type procSnap struct {
	syscr, syscw int64         // /proc/self/io read and write syscalls
	cpu          time.Duration // user + system CPU of every thread
	ctxSwitches  int64         // voluntary + involuntary
	allocs       uint64        // heap objects allocated
	gcCycles     uint64
	goroutines   int
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readProc() (procSnap, error) {
	var s procSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s.ctxSwitches = ru.Nvcsw + ru.Nivcsw
	io, err := procFields("/proc/self/io", "syscr", "syscw")
	if err != nil {
		return s, err
	}
	s.syscr, s.syscw = io[0], io[1]
	metrics.Read(procSamples)
	s.allocs = procSamples[0].Value.Uint64()
	s.gcCycles = procSamples[1].Value.Uint64()
	s.goroutines = runtime.NumGoroutine()
	return s, nil
}

// resetPeakRSS returns freed heap to the kernel and restarts VmHWM from
// the current resident set, so the peak covers what follows (serving),
// not fixture generation or earlier set-ups.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB is VmHWM, the process's peak resident set.
func peakRSSMiB() (float64, error) {
	v, err := procFields("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(v[0]) / 1024, nil
}

// procFields reads the integer values of "key: value [unit]" lines.
func procFields(path string, keys ...string) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := make([]int64, len(keys))
	found := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for i, want := range keys {
			if k != want {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return nil, fmt.Errorf("%s: empty %s", path, k)
			}
			if vals[i], err = strconv.ParseInt(fields[0], 10, 64); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", path, k, err)
			}
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if found != len(keys) {
		return nil, fmt.Errorf("%s: want %v", path, keys)
	}
	return vals, nil
}
