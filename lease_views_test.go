package prisma

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/recordio"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// TestLeasedViewsOverSocket serves packed samples to a pooled socket client
// through the three chains whose payloads are views of a larger pooled
// buffer: coalesced reads (views of a batch region), the shared cache
// (ranges sliced from a whole-shard resident) and the fast tier (ranges
// sliced from a promoted shard). Each lease must carry the view's own
// arena offset — delivered bytes equal the packed ground truth — and the
// Debug pools must end empty with clean leak ledgers.
func TestLeasedViewsOverSocket(t *testing.T) {
	cases := []struct {
		name string
		wrap chainWrap
		k    int // coalescing budget
	}{
		{"batched-regions", chainWrap{}, 4},
		{"cache-slices", chainWrap{cache: true}, 0},
		{"tier-slices", chainWrap{tiering: true}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if runtime.GOOS != "linux" {
				t.Skip("shared-memory leases need Linux")
			}
			env := conc.NewReal()
			mem, ix, names, contents := packChainDataset(t, 16, 4<<10, false)
			ch := composeChain(t, env, mem, tc.wrap)
			backend := recordio.NewIndexedBackend(ix, ch.rr)
			pool := mempool.New(mempool.Config{Debug: true})
			backend.SetBufferPool(pool)
			// Exported before any buffer is made, so the warm-up below
			// lands in the arena too.
			f, err := pool.Export()
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			// A whole-shard resident of the cache or the tier (which
			// promotes on this first read): every range is a slice of it.
			var warm storage.Backend
			if ch.cache != nil {
				warm = ch.cache
			}
			if ch.tier != nil {
				warm = ch.tier
			}
			if warm != nil {
				d, err := warm.ReadFile("chain/shard-00000.rec")
				if err != nil {
					t.Fatal(err)
				}
				d.Release()
			}
			pf, err := core.NewPrefetcher(env, backend, core.PrefetcherConfig{
				InitialProducers: 2, MaxProducers: 2,
				InitialBufferCapacity: len(names), MaxBufferCapacity: len(names),
				BatchSamples: tc.k,
			})
			if err != nil {
				t.Fatal(err)
			}
			stage := core.NewStage(env, backend, core.NewPrefetchObject(pf))
			stage.SetBufferPool(pool)
			pf.Start()
			sock := filepath.Join(shortTempDir(t), "v.sock")
			srv, err := ipc.Serve(sock, stage)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ipc.Dial(sock)
			if err != nil {
				t.Fatal(err)
			}
			clientPool := mempool.New(mempool.Config{Debug: true})
			c.SetBufferPool(clientPool)

			if err := c.SubmitPlan(names); err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				d, err := c.Read(name)
				if err != nil {
					t.Fatalf("read %s: %v", name, err)
				}
				if !bytes.Equal(d.Bytes, contents[i]) {
					t.Fatalf("%s: leased bytes differ from the packed payload", name)
				}
				d.Release()
			}
			st := srv.LeaseStats()
			c.Close()
			srv.Close()
			stage.Close()
			if tc.k > 1 && pf.BatchedSamples() == 0 {
				t.Fatal("coalescer never engaged")
			}
			if ch.cache != nil && ch.cache.Stats().Hits < int64(len(names)) {
				t.Fatalf("cache served %d hits, want every range sliced from the resident", ch.cache.Stats().Hits)
			}
			if ch.tier != nil && ch.tier.Stats().FastHits < int64(len(names)) {
				t.Fatalf("tier served %d hits, want every range sliced from the resident", ch.tier.Stats().FastHits)
			}
			ch.close()
			if want := int64(len(names)); st.Leased != want || st.Inline != 0 {
				t.Fatalf("lease stats %+v, want all %d reads leased", st, want)
			}
			for _, p := range []*mempool.Pool{pool, clientPool} {
				if leaks := p.Leaks(); len(leaks) != 0 {
					t.Fatalf("pool leaks:\n%s", mempool.FormatLeaks(leaks))
				}
				if n := p.Outstanding(); n != 0 {
					t.Fatalf("%d pooled refs outstanding", n)
				}
			}
			pool.Close()
		})
	}
}

// TestLeaseCountersInProcess: Prisma.Stats and the remote Client.Stats
// report how socket reads were delivered, and Client.PoolStats shows the
// client's leases coming and going.
func TestLeaseCountersInProcess(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("shared-memory leases need Linux")
	}
	dir := makeDataset(t, 6)
	p, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sock := filepath.Join(shortTempDir(t), "c.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	pooled, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	pooled.EnablePooledReads(BufferPoolOptions{})
	plain, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	names := p.ShuffledFileList(1, 0)
	held, err := pooled.ReadSample(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if ps := pooled.PoolStats(); ps.Gets != 1 || ps.Outstanding != 1 {
		t.Fatalf("client pool %+v with one sample held", ps)
	}
	if _, err := plain.Read(names[1]); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.LeasedReads != 1 || s.InlineReads != 1 || s.LeasesOutstanding != 1 {
		t.Fatalf("in-process stats: %d leased, %d inline, %d outstanding; want 1, 1, 1",
			s.LeasedReads, s.InlineReads, s.LeasesOutstanding)
	}
	remote, err := plain.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if remote.LeasedReads != s.LeasedReads || remote.InlineReads != s.InlineReads {
		t.Fatalf("remote stats %d leased / %d inline disagree with in-process %d / %d",
			remote.LeasedReads, remote.InlineReads, s.LeasedReads, s.InlineReads)
	}
	held.Release()
	if ps := pooled.PoolStats(); ps.Outstanding != 0 {
		t.Fatalf("client pool %+v after release", ps)
	}
}
