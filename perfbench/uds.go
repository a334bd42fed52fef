package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	prisma "github.com/dsrhaslab/prisma-go"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/trace"
)

// cotenantCapacity is the tenancy gate's total read rate: far above what
// two closed-loop clients offer on two cores, so the gate admits every
// read without throttling or shedding.
const cotenantCapacity = 1e6

// udsSystem is a prisma.Open server with ServeUnix in-process and one
// prisma.Dial client per consumer, all in this process.
type udsSystem struct {
	fx       *fixture
	seed     int64
	p        *prisma.Prisma
	clients  []*prisma.Client
	pools    []*mempool.Pool // the clients' receive pools
	cotenant bool
	streams  []func() int // cotenant: the sample each tenant reads next

	ioTrace string           // TraceFile of a traced instance
	window  [2]time.Duration // traced drives, on the server's clock
	ioOps   int64            // DirBackend calls in window
	ioLat   []int64          // their latencies in ns
	epoch   int              // next epoch number (train-uds)
	planned int64            // plan entries enqueued (train-uds)
}

// openTrainUDS is the paper's PyTorch path: default Options and two
// pooled clients, with the autotuner running but its envelope pinned to
// train-packed's t=2, N=64. Left free, the autotuner settles where noise
// on two cores takes it (one to three producers, buffers of 64 to 4096),
// and runs differ by up to 20% in samples_per_s and 2.7x in mem_peak_mib
// (README.md).
func openTrainUDS(fx *fixture, dir string, seed int64, tr *tracer) (system, error) {
	opts := prisma.Options{
		Dir:              fx.dir,
		InitialProducers: packedProducers,
		MaxProducers:     packedProducers,
		InitialBuffer:    packedBuffer,
		MaxBuffer:        packedBuffer,
	}
	return openUDS(fx, dir, seed, tr, opts, []string{"", ""})
}

// openCotenant shares one server between the tenants scan and skew, with
// the shared cache holding half the raw dataset under a compressing fast
// tier holding a quarter of the compressed dataset.
func openCotenant(fx *fixture, dir string, seed int64, tr *tracer) (system, error) {
	opts := prisma.Options{
		Dir: fx.dir,
		Tenancy: prisma.TenancyOptions{
			Enable:           true,
			Capacity:         cotenantCapacity,
			SharedCacheBytes: fx.man.TotalBytes() / 2,
			Tenants:          []prisma.TenantSpec{{Name: "scan", Weight: 1}, {Name: "skew", Weight: 1}},
		},
		Tiering: prisma.TieringOptions{Enable: true, Compress: true, CapacityBytes: fx.storedBytes / 4},
	}
	s, err := openUDS(fx, dir, seed, tr, opts, []string{"scan", "skew"})
	if err != nil {
		return nil, err
	}
	s.cotenant = true
	n := fx.man.Len()
	scan := rand.New(rand.NewPCG(uint64(seed), 1))
	var perm []int
	s.streams = append(s.streams, func() int {
		if len(perm) == 0 {
			perm = scan.Perm(n)
		}
		i := perm[0]
		perm = perm[1:]
		return i
	})
	// The skewed tenant's popularity ranking is redrawn every n reads.
	// With one fixed ranking the sizes of the few hottest samples, and so
	// the read latencies, changed by up to a sixth from seed to seed; a
	// run now averages over many hot sets.
	skew := rand.New(rand.NewPCG(uint64(seed), 2))
	zipf := rand.NewZipf(skew, 1.1, 1, uint64(n-1))
	var rank []int
	reads := 0
	s.streams = append(s.streams, func() int {
		if reads%n == 0 {
			rank = skew.Perm(n)
		}
		reads++
		return rank[zipf.Uint64()]
	})
	return s, nil
}

func openUDS(fx *fixture, dir string, seed int64, tr *tracer, opts prisma.Options, tenants []string) (*udsSystem, error) {
	s := &udsSystem{fx: fx, seed: seed}
	if tr != nil {
		s.ioTrace = filepath.Join(dir, "io.jsonl")
		opts.TraceFile = s.ioTrace
	}
	p, err := prisma.Open(opts)
	if err != nil {
		return nil, err
	}
	s.p = p
	sock := filepath.Join(dir, "s.sock")
	if err := p.ServeUnix(sock); err != nil {
		p.Close()
		return nil, err
	}
	for _, t := range tenants {
		c, err := prisma.DialWithOptions(sock, prisma.DialOptions{Tenant: t})
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
		c.EnablePooledReads(prisma.BufferPoolOptions{})
		pool, err := clientPool(c)
		if err != nil {
			s.close()
			return nil, err
		}
		s.pools = append(s.pools, pool)
	}
	return s, nil
}

// clientPool reads the receive pool EnablePooledReads gave c. The audit
// needs its outstanding leases, and prisma.Client exposes no pool counters.
func clientPool(c *prisma.Client) (*mempool.Pool, error) {
	v := reflect.ValueOf(c).Elem().FieldByName("pool")
	if !v.IsValid() || v.Type() != reflect.TypeOf((*mempool.Pool)(nil)) || v.IsNil() {
		return nil, errors.New("prisma.Client has no *mempool.Pool field named pool to audit")
	}
	return (*mempool.Pool)(v.UnsafePointer()), nil
}

func (s *udsSystem) drive(d time.Duration, tr *tracer) (load, error) {
	if tr != nil {
		if s.window[0] == 0 {
			s.window[0] = s.p.Attribution(len(s.clients)).Window
		}
		defer func() { s.window[1] = s.p.Attribution(len(s.clients)).Window }()
	}
	if s.cotenant {
		return s.driveTenants(d, tr), nil
	}
	return s.driveEpochs(d, tr)
}

// driveEpochs has the two clients read with no think time, client 0
// submitting each epoch's plan.
func (s *udsSystem) driveEpochs(d time.Duration, tr *tracer) (load, error) {
	return driveEpochs(s.fx, s.seed, &s.epoch, d, tr, func(c *consumer, names []string, epoch int32) error {
		t0 := time.Now()
		_, enqueued, err := s.clients[0].SubmitEpoch(names)
		t1 := time.Now()
		c.calls++
		if tr != nil {
			c.spans = append(c.spans, span{name: spanClientSubmit, epoch: epoch, sample: -1, start: tr.ns(t0), end: tr.ns(t1)})
		}
		s.planned += int64(enqueued)
		return err
	}, func(c *consumer, j int, _ string, idx int, epoch int32) {
		s.read(c, s.clients[j%len(s.clients)], idx, epoch, tr)
	})
}

// driveTenants has each tenant read its own stream, unplanned, until d
// has passed.
func (s *udsSystem) driveTenants(d time.Duration, tr *tracer) load {
	cs := newConsumers(len(s.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *consumer) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s.read(c, s.clients[i], s.streams[i](), int32(i), tr)
			}
		}(i, c)
	}
	wg.Wait()
	return collect(cs, time.Since(start), tr)
}

func (s *udsSystem) read(c *consumer, cl *prisma.Client, idx int, epoch int32, tr *tracer) {
	t0 := time.Now()
	smp, err := cl.ReadSample(s.fx.man.Sample(idx).Name)
	t1 := time.Now()
	c.calls++
	var b []byte
	if err == nil {
		b = smp.Bytes()
	}
	c.observe(s.fx, idx, t1.Sub(t0), b, err)
	if err == nil {
		smp.Release()
	}
	if tr != nil {
		c.spans = append(c.spans, span{name: spanClientRead, epoch: epoch, sample: int32(idx), start: tr.ns(t0), end: tr.ns(t1)})
	}
}

func (s *udsSystem) counters() (layerCounters, error) {
	st := s.p.Stats()
	lc := layerCounters{
		reads:               st.Reads,
		hits:                st.Hits,
		errors:              st.Errors,
		shed:                st.TenantsShed,
		prefetched:          st.PrefetchedFiles,
		consumerWait:        st.ConsumerWait,
		consumerWaitStorage: st.ConsumerWaitStorage,
		producerWait:        st.ProducerWait,
		storageBusy:         st.StorageBusy,
		throttleWait:        st.ThrottleWait,
		batchReads:          st.BatchReads,
		batchedSamples:      st.BatchedSamples,
		batchFallbacks:      st.BatchFallbacks,
		retries:             st.Retries,
		poolGets:            st.PoolGets,
		// Stats carries the server pool's hit rate, not its hit count.
		// No sample exceeds the largest size class, so every lease is a
		// pooled one and the rate's base is PoolGets.
		poolHits:       int64(math.Round(st.PoolHitRate * float64(st.PoolGets))),
		cacheHits:      st.CacheHits,
		cacheMisses:    st.CacheMisses,
		cacheWaits:     st.CacheWaits,
		cacheEvictions: st.CacheEvictions,
		cacheWait:      st.CacheWaitTime,
		tierHits:       st.TierFastHits,
		tierSlow:       st.TierSlowReads,
		tierPromotions: st.TierPromotions,
		tierEvictions:  st.TierEvictions,
		tierPromote:    st.TierPromoteTime,
		tierDecode:     st.TierDecodeTime,
		tierUsed:       st.TierUsedBytes,
		tierLogical:    st.TierLogicalBytes,
		producers:      st.Producers,
		buffer:         st.BufferCapacity,
	}
	// A read reaches DirBackend through the cache when there is one, and
	// through a producer (or a bypass) otherwise.
	if st.CacheEnabled {
		lc.storageOps = st.CacheDeviceReads
	} else {
		lc.storageOps = st.PrefetchedFiles + st.ReadErrors + st.Bypasses + st.Retries
	}
	for _, pl := range s.pools {
		ps := pl.Stats()
		lc.poolGets += ps.Gets
		lc.poolHits += ps.Hits
	}
	raw, err := s.clients[0].Decisions()
	if err != nil {
		return lc, fmt.Errorf("decisions: %w", err)
	}
	var recs []struct {
		Before, After struct{ Producers, BufferCapacity int }
	}
	if err := json.Unmarshal(raw, &recs); err != nil {
		return lc, fmt.Errorf("decisions: %w", err)
	}
	for _, r := range recs {
		if r.Before != r.After {
			lc.tuningChanges++
		}
	}
	return lc, nil
}

func (s *udsSystem) close() (int64, error) {
	var errs []error
	for _, c := range s.clients {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.p.Close(); err != nil {
		errs = append(errs, err)
	}
	st := s.p.Stats()
	outstanding := st.PoolOutstanding
	if st.PoolOutstanding != 0 {
		errs = append(errs, fmt.Errorf("server pool: %d buffers outstanding after close", st.PoolOutstanding))
	}
	for i, pl := range s.pools {
		n := pl.Outstanding()
		outstanding += n
		if n != 0 {
			errs = append(errs, fmt.Errorf("client %d pool: %d buffers outstanding after close", i, n))
		}
	}
	if !s.cotenant && (st.PlanDelivered != s.planned || st.PlanDropped != 0) {
		errs = append(errs, fmt.Errorf("plan: %d entries submitted, %d delivered, %d dropped", s.planned, st.PlanDelivered, st.PlanDropped))
	}
	if st.Errors != 0 || st.ReadErrors != 0 {
		errs = append(errs, fmt.Errorf("stage: %d read errors, %d producer errors", st.Errors, st.ReadErrors))
	}
	if st.Retries != 0 {
		errs = append(errs, fmt.Errorf("storage: %d retries", st.Retries))
	}
	if s.ioTrace != "" {
		if err := s.readIOTrace(); err != nil {
			errs = append(errs, err)
		}
	}
	return outstanding, errors.Join(errs...)
}

// readIOTrace loads the DirBackend calls the server's recorder saw inside
// the traced drive's window.
func (s *udsSystem) readIOTrace() error {
	f, err := os.Open(s.ioTrace)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := trace.Read(f)
	if err != nil {
		return err
	}
	for _, ev := range t.Events {
		if ev.Op == trace.OpSize || ev.At < s.window[0] || ev.At > s.window[1] {
			continue
		}
		s.ioOps++
		s.ioLat = append(s.ioLat, int64(ev.Latency))
	}
	return nil
}

func (s *udsSystem) storageTrace() (int64, []int64) { return s.ioOps, s.ioLat }
