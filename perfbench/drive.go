package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// system is one set-up instance of a workload's serving chain.
type system interface {
	// drive runs the consumers closed-loop for at least d (whole epochs on
	// the train-* workloads). A non-nil tracer records spans.
	drive(d time.Duration, tr *tracer) (load, error)
	// counters snapshots the layers' own always-on counters.
	counters() (layerCounters, error)
	// close tears the instance down and audits what it left behind,
	// reporting the pooled buffers still leased.
	close() (outstanding int64, audit error)
	// storageTrace reports the calls into DirBackend a traced instance
	// saw during traced drives: their count and latencies in ns.
	storageTrace() (ops int64, lat []int64)
}

// layerCounters are cumulative; a timed region is the difference of two.
type layerCounters struct {
	reads, hits, errors, shed, prefetched int64
	consumerWait, consumerWaitStorage     time.Duration
	producerWait, storageBusy             time.Duration
	throttleWait                          time.Duration

	batchReads, batchedSamples, batchFallbacks int64

	retries    int64
	storageOps int64 // calls into DirBackend as the program counts them

	poolGets, poolHits int64 // server and client pools together

	cacheHits, cacheMisses, cacheWaits, cacheEvictions int64
	cacheWait                                          time.Duration

	tierHits, tierSlow, tierPromotions, tierEvictions int64
	tierPromote, tierDecode                           time.Duration
	tierUsed, tierLogical                             int64

	producers, buffer int
	tuningChanges     int64
}

// consumer is one closed-loop reader's record of a drive. Only its own
// goroutine touches it while the drive runs.
type consumer struct {
	lat        []int64 // ns per read; a failed read is math.MaxInt64
	delivered  int64
	failed     int64 // errors, sheds and size/checksum mismatches
	calls      int64 // round trips issued: reads and plan submissions
	goroutines int   // peak goroutine count seen
	spans      []span
}

func newConsumers(n int) []*consumer {
	cs := make([]*consumer, n)
	for i := range cs {
		cs[i] = &consumer{lat: make([]int64, 0, 1<<16)}
	}
	return cs
}

// observe records one read of sample idx: its latency, and whether the
// payload passed the size and checksum check.
func (c *consumer) observe(fx *fixture, idx int, lat time.Duration, b []byte, err error) {
	if err == nil && fx.verify(idx, b) {
		c.delivered++
		c.lat = append(c.lat, int64(lat))
	} else {
		c.failed++
		c.lat = append(c.lat, math.MaxInt64)
	}
	if len(c.lat)%64 == 0 {
		c.goroutines = max(c.goroutines, runtime.NumGoroutine())
	}
}

// driveEpochs runs whole epochs, numbered on from *epoch, until d has
// passed. In each, consumer 0 submits the epoch's seeded shuffle, then
// consumer i reads plan positions i, i+2, ... in order; both finish the
// epoch before the next is submitted.
func driveEpochs(fx *fixture, seed int64, epoch *int, d time.Duration, tr *tracer,
	submit func(c *consumer, names []string, epoch int32) error,
	read func(c *consumer, j int, name string, idx int, epoch int32)) (load, error) {
	cs := newConsumers(2)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		order := fx.man.EpochOrder(seed, *epoch)
		names := make([]string, len(order))
		for j, idx := range order {
			names[j] = fx.man.Sample(idx).Name
		}
		e := int32(*epoch)
		*epoch++
		ready := make(chan struct{})
		var submitErr error
		var wg sync.WaitGroup
		for ci, c := range cs {
			wg.Add(1)
			go func(ci int, c *consumer) {
				defer wg.Done()
				if ci == 0 {
					submitErr = submit(c, names, e)
					close(ready)
				} else {
					<-ready
				}
				if submitErr != nil {
					return
				}
				for j := ci; j < len(names); j += len(cs) {
					read(c, j, names[j], order[j], e)
				}
			}(ci, c)
		}
		wg.Wait()
		if submitErr != nil {
			return load{}, submitErr
		}
	}
	return collect(cs, time.Since(start), tr), nil
}

// load is what the consumers observed over one drive.
type load struct {
	lat        []int64
	delivered  int64
	failed     int64
	calls      int64
	goroutines int
	perClient  []int64 // delivered per consumer
	elapsed    time.Duration
}

func (l load) attempted() int64 { return l.delivered + l.failed }

// merge concatenates consecutive loads.
func merge(parts []load) load {
	var l load
	for _, p := range parts {
		l.lat = append(l.lat, p.lat...)
		l.delivered += p.delivered
		l.failed += p.failed
		l.calls += p.calls
		l.goroutines = max(l.goroutines, p.goroutines)
		if l.perClient == nil {
			l.perClient = make([]int64, len(p.perClient))
		}
		for i, n := range p.perClient {
			l.perClient[i] += n
		}
		l.elapsed += p.elapsed
	}
	return l
}

// collect merges the consumers' records and hands their spans to tr.
func collect(cs []*consumer, elapsed time.Duration, tr *tracer) load {
	l := load{elapsed: elapsed}
	for _, c := range cs {
		l.lat = append(l.lat, c.lat...)
		l.delivered += c.delivered
		l.failed += c.failed
		l.calls += c.calls
		l.goroutines = max(l.goroutines, c.goroutines)
		l.perClient = append(l.perClient, c.delivered)
		if tr != nil {
			tr.add(c.spans)
		}
	}
	return l
}
