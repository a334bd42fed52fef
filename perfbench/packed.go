package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/recordio"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// The train-packed chain is composed from layer constructors because
// prisma.Options has no packed-dataset path. It follows Open where Open
// has an opinion (pool attached at the top of the chain, default
// resilience settings, one tracer at sampling 0, GOMAXPROCS buffer
// shards). The resilient wrapper sits under the recordio view rather than
// over it: the prefetcher finds the coalescer by asking its backend for
// storage.BatchProvider, which only recordio.IndexedBackend implements.
const (
	packedProducers = 2
	packedBuffer    = 64
	packedBatch     = 4
	packedBatchMiB  = 4
)

type packedSystem struct {
	fx    *fixture
	seed  int64
	pool  *mempool.Pool
	rb    *storage.ResilientBackend
	stage *core.Stage
	dir   *timedDir // traced phase only

	epoch     int
	submitted int64
}

func openPacked(fx *fixture, _ string, seed int64, tr *tracer) (system, error) {
	env := conc.NewReal()
	pool := mempool.New(mempool.Config{})
	var store storage.Backend = storage.NewDirBackend(fx.dir)
	var td *timedDir
	if tr != nil {
		td = newTimedDir(store.(*storage.DirBackend), fx, tr)
		store = td
	}
	rb, err := storage.NewResilientBackend(env, store, storage.DefaultResilienceConfig())
	if err != nil {
		return nil, err
	}
	ib := recordio.NewIndexedBackend(fx.index, rb)
	ib.SetBufferPool(pool)
	pf, err := core.NewPrefetcher(env, ib, core.PrefetcherConfig{
		InitialProducers:      packedProducers,
		MaxProducers:          packedProducers,
		InitialBufferCapacity: packedBuffer,
		MaxBufferCapacity:     packedBuffer,
		BufferShards:          runtime.GOMAXPROCS(0),
		BatchSamples:          packedBatch,
		BatchBytes:            packedBatchMiB << 20,
	})
	if err != nil {
		return nil, err
	}
	stage := core.NewStage(env, ib, core.NewPrefetchObject(pf))
	stage.SetTracer(obs.NewTracer(env, obs.TracerOptions{}))
	stage.SetBufferPool(pool)
	pf.Start()
	return &packedSystem{fx: fx, seed: seed, pool: pool, rb: rb, stage: stage, dir: td}, nil
}

// drive has two goroutines call Stage.Read in plan order.
func (s *packedSystem) drive(d time.Duration, tr *tracer) (load, error) {
	ld, err := driveEpochs(s.fx, s.seed, &s.epoch, d, tr, func(c *consumer, names []string, epoch int32) error {
		if s.dir != nil && tr != nil {
			s.dir.epoch.Store(epoch)
		}
		res, err := s.stage.SubmitEpoch(names)
		c.calls++
		s.submitted += int64(res.Enqueued)
		return err
	}, func(c *consumer, _ int, name string, idx int, epoch int32) {
		t0 := time.Now()
		data, err := s.stage.Read(name)
		t1 := time.Now()
		c.calls++
		c.observe(s.fx, idx, t1.Sub(t0), data.Bytes, err)
		data.Release()
		if tr != nil {
			c.spans = append(c.spans, span{name: spanStageRead, epoch: epoch, sample: int32(idx), start: tr.ns(t0), end: tr.ns(t1)})
		}
	})
	if s.dir != nil {
		s.dir.epoch.Store(-1)
	}
	return ld, err
}

func (s *packedSystem) counters() (layerCounters, error) {
	st := s.stage.Stats()
	rs := s.rb.ResilienceStats()
	ps := s.pool.Stats()
	return layerCounters{
		reads:               st.Reads,
		hits:                st.Hits,
		errors:              st.Errors,
		prefetched:          st.PrefetchedFiles,
		consumerWait:        st.Buffer.ConsumerWait,
		consumerWaitStorage: st.Buffer.ConsumerWaitStorage,
		producerWait:        st.Buffer.ProducerWait,
		storageBusy:         st.StorageBusy,
		batchReads:          st.BatchReads,
		batchedSamples:      st.BatchedSamples,
		batchFallbacks:      st.BatchFallbacks,
		retries:             rs.Retries,
		storageOps:          rs.Attempts,
		poolGets:            ps.Gets,
		poolHits:            ps.Hits,
		producers:           st.TargetProducers,
		buffer:              st.Buffer.Capacity,
	}, nil
}

func (s *packedSystem) close() (int64, error) {
	s.stage.Close()
	st := s.stage.Stats()
	var errs []error
	outstanding := s.pool.Outstanding()
	if outstanding != 0 {
		errs = append(errs, fmt.Errorf("pool: %d buffers outstanding after close", outstanding))
	}
	if st.Plan.Delivered != s.submitted || st.Plan.Dropped != 0 {
		errs = append(errs, fmt.Errorf("plan: %d entries submitted, %d delivered, %d dropped", s.submitted, st.Plan.Delivered, st.Plan.Dropped))
	}
	if st.Errors != 0 || st.ReadErrors != 0 {
		errs = append(errs, fmt.Errorf("stage: %d read errors, %d producer errors", st.Errors, st.ReadErrors))
	}
	if rs := s.rb.ResilienceStats(); rs.Retries != 0 || rs.UnsupportedOps != 0 {
		errs = append(errs, fmt.Errorf("storage: %d retries, %d unsupported ops", rs.Retries, rs.UnsupportedOps))
	}
	return outstanding, errors.Join(errs...)
}

// storageTrace reports the traced phase's calls into DirBackend.
func (s *packedSystem) storageTrace() (int64, []int64) {
	if s.dir == nil {
		return 0, nil
	}
	return int64(len(s.dir.tr.opLat)), s.dir.tr.opLat
}

// timedDir is the storage.dir decorator of the traced train-packed phase:
// it sits between the recordio view (under the resilient wrapper) and
// DirBackend, records one span per call, and forwards every extension
// DirBackend offers. Dropping one (say ReadRangeBatch) would silently turn
// vectored reads into per-sample ones; the same-path check catches that.
type timedDir struct {
	dir   *storage.DirBackend
	tr    *tracer
	where map[shardOff]int32 // record start -> sample index
	epoch atomic.Int32       // epoch being read; < 0 records nothing
}

type shardOff struct {
	shard string
	off   int64
}

func newTimedDir(dir *storage.DirBackend, fx *fixture, tr *tracer) *timedDir {
	t := &timedDir{dir: dir, tr: tr, where: make(map[shardOff]int32, fx.man.Len())}
	for i := 0; i < fx.man.Len(); i++ {
		if e, ok := fx.index.Lookup(fx.man.Sample(i).Name); ok {
			t.where[shardOff{e.Shard, e.Offset}] = int32(i)
		}
	}
	t.epoch.Store(-1)
	return t
}

func (t *timedDir) record(shard string, ranges []storage.Range, start, end time.Time) {
	epoch := t.epoch.Load()
	if epoch < 0 {
		return
	}
	samples := make([]int32, 0, len(ranges))
	for _, r := range ranges {
		if i, ok := t.where[shardOff{shard, r.Off}]; ok {
			samples = append(samples, i)
		}
	}
	t.tr.addOp(spanStorageDir, epoch, samples, start, end)
}

func (t *timedDir) ReadFile(name string) (storage.Data, error) {
	t0 := time.Now()
	d, err := t.dir.ReadFile(name)
	t.record(name, nil, t0, time.Now())
	return d, err
}

func (t *timedDir) Size(name string) (int64, error) { return t.dir.Size(name) }

func (t *timedDir) ReadRange(name string, off, n int64) (storage.Data, error) {
	t0 := time.Now()
	d, err := t.dir.ReadRange(name, off, n)
	t.record(name, []storage.Range{{Off: off, N: n}}, t0, time.Now())
	return d, err
}

func (t *timedDir) ReadRangeBatch(name string, ranges []storage.Range, out []storage.Data) ([]storage.Data, error) {
	t0 := time.Now()
	res, err := t.dir.ReadRangeBatch(name, ranges, out)
	t.record(name, ranges, t0, time.Now())
	return res, err
}

func (t *timedDir) SetBufferPool(p *mempool.Pool) { t.dir.SetBufferPool(p) }
