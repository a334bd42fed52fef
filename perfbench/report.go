package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

// report is a run's printed table and its result line.
type report struct {
	table  []namedMetric
	result result
}

// endToEnd reports an untraced phase's end-to-end metrics.
func endToEnd(u *phase) (*report, error) {
	rep := &report{result: result{Metrics: map[string]metricValue{}}}
	ms, err := u.e2eMetrics()
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		rep.table = append(rep.table, m)
		rep.result.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	rep.result.Attempted = u.load.attempted()
	rep.result.Failed = u.load.failed
	rep.result.Correct = u.audit == nil && u.load.failed == 0
	return rep, u.audit
}

func (ph *phase) samplesPerSec() float64 {
	return float64(ph.load.delivered) / ph.load.elapsed.Seconds()
}

func (ph *phase) e2eMetrics() ([]namedMetric, error) {
	if ph.load.delivered == 0 {
		return nil, errors.New("no sample delivered")
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	var rate, p50, p99, cpu []float64
	for _, w := range ph.windows {
		if w.load.delivered == 0 {
			return nil, errors.New("a window delivered no sample")
		}
		lat := sorted(w.load.lat)
		rate = append(rate, float64(w.load.delivered)/w.load.elapsed.Seconds())
		p50 = append(p50, us(percentile(lat, 0.50)))
		p99 = append(p99, us(percentile(lat, 0.99)))
		cpu = append(cpu, us(int64(w.cpu))/float64(w.load.delivered))
		fmt.Printf("window %2d: %10.1f samples/s  p50 %8.1f us  p99 %9.1f us  cpu %7.1f us/sample\n",
			len(rate), rate[len(rate)-1], p50[len(p50)-1], p99[len(p99)-1], cpu[len(cpu)-1])
	}
	var setup []float64
	for _, d := range ph.setup {
		setup = append(setup, d.Seconds())
	}
	return []namedMetric{
		{"samples_per_s", median(rate), "samples/s"},
		{"read_p50_us", median(p50), "us"},
		{"read_p99_us", median(p99), "us"},
		{"cpu_us_per_sample", median(cpu), "us"},
		{"mem_peak_mib", peak, "MiB"},
		{"setup_s", median(setup), "s"},
	}, nil
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perLayer reports the per-layer metrics of a traced run: counter metrics
// from the untraced phase u, span and storage-call metrics from the traced
// phase t, after checking that both phases took the same path.
func perLayer(w *workload, u, t *phase, tr *tracer) (*report, error) {
	rep := &report{result: result{Metrics: map[string]metricValue{}}}
	e2e, err := u.e2eMetrics()
	if err != nil {
		return nil, err
	}
	rep.table = append(rep.table, e2e...)
	if t.load.delivered == 0 {
		return nil, errors.New("traced phase delivered no sample")
	}
	self, reads, err := selfTimes(tr.spans, w.rootSpan)
	if err != nil {
		return nil, err
	}
	layers := u.layerMetrics(w)
	layers = append(layers,
		namedMetric{"storage.ops_per_sample", float64(t.storageOps) / float64(t.load.delivered), "count"},
		namedMetric{"storage.read_us_p50", us(percentile(sorted(t.storageLatency), 0.50)), "us"},
		namedMetric{"trace.overhead_ratio", u.samplesPerSec() / t.samplesPerSec(), "ratio"},
		namedMetric{"read_fail_ratio", float64(u.load.failed+t.load.failed) / float64(u.load.attempted()+t.load.attempted()), "ratio"},
	)
	for _, name := range spanNames {
		layers = append(layers, namedMetric{"self_us." + name, us(self[name]) / float64(max(reads, 1)), "us"})
	}
	for _, m := range layers {
		rep.table = append(rep.table, m)
		rep.result.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	rep.result.Attempted = u.load.attempted() + t.load.attempted()
	rep.result.Failed = u.load.failed + t.load.failed
	audit := errors.Join(u.audit, t.audit, samePath(u, t))
	rep.result.Correct = audit == nil && rep.result.Failed == 0
	return rep, audit
}

// layerMetrics derives the counter-based per-layer metrics of one phase.
func (ph *phase) layerMetrics(w *workload) []namedMetric {
	b, a, ld := ph.before, ph.after, ph.load
	samples := float64(ld.delivered)
	reads := float64(ld.attempted())
	uds := w.rootSpan == spanClientRead
	var transport, roundTrips, stageP50, stageP99 float64
	lat := sorted(ld.lat)
	if uds {
		// Client read time the server's own wait counters do not account
		// for: framing, the socket, copies and scheduling.
		var total int64
		for _, l := range ld.lat {
			if l != math.MaxInt64 {
				total += l
			}
		}
		waits := (a.consumerWait - b.consumerWait) + (a.throttleWait - b.throttleWait) +
			(a.cacheWait - b.cacheWait) + (a.tierPromote - b.tierPromote) + (a.tierDecode - b.tierDecode)
		transport = us(total-int64(waits)) / reads
		roundTrips = float64(ld.calls) / samples
	} else {
		stageP50, stageP99 = us(percentile(lat, 0.50)), us(percentile(lat, 0.99))
	}
	return []namedMetric{
		{"ipc.transport_us_per_read", transport, "us"},
		{"ipc.round_trips_per_sample", roundTrips, "count"},
		{"proc.read_syscalls_per_sample", float64(ph.p1.syscr-ph.p0.syscr) / samples, "count"},
		{"proc.write_syscalls_per_sample", float64(ph.p1.syscw-ph.p0.syscw) / samples, "count"},
		{"proc.ctx_switches_per_sample", float64(ph.p1.ctxSwitches-ph.p0.ctxSwitches) / samples, "count"},
		{"proc.goroutines_peak", float64(max(ld.goroutines, ph.p0.goroutines, ph.p1.goroutines)), "count"},
		{"proc.allocs_per_sample", float64(ph.p1.allocs-ph.p0.allocs) / samples, "count"},
		{"proc.gc_cycles_per_ksample", 1000 * float64(ph.p1.gcCycles-ph.p0.gcCycles) / samples, "count"},
		{"core.consumer_wait_us_per_read", ratio(us(int64(a.consumerWait-b.consumerWait)), float64(a.reads-b.reads)), "us"},
		{"core.consumer_wait_storage_share", ratio(float64(a.consumerWaitStorage-b.consumerWaitStorage), float64(a.consumerWait-b.consumerWait)), "ratio"},
		{"core.producer_wait_us_per_sample", ratio(us(int64(a.producerWait-b.producerWait)), float64(a.prefetched-b.prefetched)), "us"},
		{"core.prefetch_hit_ratio", ph.prefetchHitRatio(), "ratio"},
		{"core.stage_read_us_p50", stageP50, "us"},
		{"core.stage_read_us_p99", stageP99, "us"},
		{"control.producers_end", float64(a.producers), "count"},
		{"control.buffer_end", float64(a.buffer), "count"},
		{"control.tuning_changes", float64(a.tuningChanges - b.tuningChanges), "count"},
		{"storage.busy_us_per_sample", us(int64(a.storageBusy-b.storageBusy)) / samples, "us"},
		{"storage.retries", float64(a.retries - b.retries), "count"},
		{"batch.samples_per_vector", ph.samplesPerVector(), "count"},
		{"batch.fallback_ratio", ratio(float64(a.batchFallbacks-b.batchFallbacks), float64(a.batchReads-b.batchReads+a.batchFallbacks-b.batchFallbacks)), "ratio"},
		{"mempool.hit_ratio", ratio(float64(a.poolHits-b.poolHits), float64(a.poolGets-b.poolGets)), "ratio"},
		{"mempool.outstanding_end", float64(ph.outstanding), "count"},
		{"sharedcache.hit_ratio", ph.cacheHitRatio(), "ratio"},
		{"sharedcache.coalesce_ratio", ratio(float64(a.cacheWaits-b.cacheWaits), float64(a.cacheMisses-b.cacheMisses)), "ratio"},
		{"sharedcache.wait_us_per_read", us(int64(a.cacheWait-b.cacheWait)) / reads, "us"},
		{"sharedcache.evictions_per_ksample", 1000 * float64(a.cacheEvictions-b.cacheEvictions) / samples, "count"},
		{"tiering.fast_hit_ratio", ph.tierHitRatio(), "ratio"},
		{"tiering.decode_us_per_hit", ratio(us(int64(a.tierDecode-b.tierDecode)), float64(a.tierHits-b.tierHits)), "us"},
		{"tiering.promote_us_per_promotion", ratio(us(int64(a.tierPromote-b.tierPromote)), float64(a.tierPromotions-b.tierPromotions)), "us"},
		{"tiering.compression_ratio", ratio(float64(a.tierLogical), float64(a.tierUsed)), "ratio"},
		{"tiering.evictions_per_ksample", 1000 * float64(a.tierEvictions-b.tierEvictions) / samples, "count"},
		{"tenancy.throttle_wait_us_per_read", us(int64(a.throttleWait-b.throttleWait)) / reads, "us"},
		{"tenancy.shed_ratio", float64(a.shed-b.shed) / reads, "ratio"},
		// Slower over faster consumer; on train-* both read equal halves.
		{"tenancy.tenant_rate_ratio", float64(slices.Min(ld.perClient)) / float64(slices.Max(ld.perClient)), "ratio"},
	}
}

func (ph *phase) prefetchHitRatio() float64 {
	return ratio(float64(ph.after.hits-ph.before.hits), float64(ph.after.reads-ph.before.reads))
}

func (ph *phase) samplesPerVector() float64 {
	return ratio(float64(ph.after.batchedSamples-ph.before.batchedSamples), float64(ph.after.batchReads-ph.before.batchReads))
}

func (ph *phase) cacheHitRatio() float64 {
	h := float64(ph.after.cacheHits - ph.before.cacheHits)
	return ratio(h, h+float64(ph.after.cacheMisses-ph.before.cacheMisses))
}

func (ph *phase) tierHitRatio() float64 {
	h := float64(ph.after.tierHits - ph.before.tierHits)
	return ratio(h, h+float64(ph.after.tierSlow-ph.before.tierSlow))
}

// Same-path tolerances. Between runs of a workload the hit ratios moved by
// under 0.01 and samples per vector and ops per sample by under 1%; a
// decorator that drops ReadRangeBatch moves them to 0 and by +37%.
const (
	samePathRatioTol = 0.05 // absolute, for hit ratios
	samePathCountTol = 0.10 // relative, for samples per vector and ops per sample
)

// samePath fails when the traced phase took another path through the
// chain than the untraced one: a timing decorator that drops a storage
// extension shows up as fewer samples per vector and more storage ops.
func samePath(u, t *phase) error {
	var errs []error
	check := func(name string, x, y, tol float64, relative bool) {
		diff := math.Abs(x - y)
		if relative {
			diff /= math.Max(math.Abs(x), 1e-9)
		}
		if diff > tol {
			errs = append(errs, fmt.Errorf("same-path: %s untraced %.4f, traced %.4f", name, x, y))
		}
	}
	check("core.prefetch_hit_ratio", u.prefetchHitRatio(), t.prefetchHitRatio(), samePathRatioTol, false)
	check("sharedcache.hit_ratio", u.cacheHitRatio(), t.cacheHitRatio(), samePathRatioTol, false)
	check("tiering.fast_hit_ratio", u.tierHitRatio(), t.tierHitRatio(), samePathRatioTol, false)
	check("batch.samples_per_vector", u.samplesPerVector(), t.samplesPerVector(), samePathCountTol, true)
	uOps := float64(u.after.storageOps-u.before.storageOps) / float64(u.load.delivered)
	check("storage.ops_per_sample", uOps, float64(t.storageOps)/float64(t.load.delivered), samePathCountTol, true)
	return errors.Join(errs...)
}

// percentile is the nearest-rank percentile of ascending values.
func percentile(asc []int64, p float64) int64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	return asc[max(i, 0)]
}

func sorted(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func us(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}
