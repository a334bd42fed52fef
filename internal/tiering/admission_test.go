package tiering

import (
	"sync/atomic"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// readAll reads every name once, failing the test on a read error.
func readAll(t *testing.T, b *Backend, names []string) {
	t.Helper()
	for _, n := range names {
		if _, err := b.ReadFile(n); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmissionFilterResistsScan: a hot set read several times stays
// resident while a flood of one-shot names passes through a full tier.
// Under plain LRU every flood name would be compressed and promoted and
// would evict a hot resident; the filter declines each one instead.
func TestAdmissionFilterResistsScan(t *testing.T) {
	runSim(t, func(env conc.Env) {
		// The tier fits the four hot names exactly; 100 flood names follow.
		b, names := tieredFixture(env, Config{FastCapacity: 4000, PromoteAfter: 1}, 104, 1000)
		hot, flood := names[:4], names[4:]
		for i := 0; i < 3; i++ {
			readAll(t, b, hot)
		}
		if st := b.Stats(); st.Promotions != 4 || st.Residents != 4 {
			t.Fatalf("after warm-up: %+v, want the 4 hot names resident", st)
		}
		// Training keeps reading the hot set between one-shot reads.
		for i := 0; i < len(flood); i += 4 {
			readAll(t, b, flood[i:i+4])
			readAll(t, b, hot)
		}
		st := b.Stats()
		if st.Promotions != 4 || st.Evictions != 0 {
			t.Fatalf("flood promoted %d and evicted %d, want 0 and 0: %+v", st.Promotions-4, st.Evictions, st)
		}
		if st.AdmissionRejects != int64(len(flood)) {
			t.Fatalf("AdmissionRejects = %d, want %d (one per flood name)", st.AdmissionRejects, len(flood))
		}
		for _, n := range hot {
			if !b.Resident(n) {
				t.Fatalf("hot %s evicted by the flood", n)
			}
		}
		if st.AccessDecays == 0 {
			t.Fatal("212 reads through a 4-entry tier must age the counts (W = 40)")
		}
	})
}

// TestAdmissionAdaptsToNewHotSet: once the hot set changes, aging erodes
// the old residents' counts, so the new hot set displaces the old within
// a bounded number of reads instead of being declined forever.
func TestAdmissionAdaptsToNewHotSet(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 4000, PromoteAfter: 1}, 8, 1000)
		old, next := names[:4], names[4:]
		for i := 0; i < 50; i++ {
			readAll(t, b, old)
		}
		// W is ten times the tier's 4 entries. The new set must take over
		// within three aging periods.
		const window = 40
		reads := 0
		for reads < 3*window {
			readAll(t, b, next)
			reads += len(next)
			resident := 0
			for _, n := range next {
				if b.Resident(n) {
					resident++
				}
			}
			if resident == len(next) {
				break
			}
		}
		st := b.Stats()
		for _, n := range next {
			if !b.Resident(n) {
				t.Fatalf("%s still not resident after %d reads of the new hot set: %+v", n, reads, st)
			}
		}
		if st.AdmissionRejects == 0 {
			t.Fatalf("the new hot set was never declined: the old one's counts did not count (%+v)", st)
		}
	})
}

// gatedBackend serves a slow tier whose first read blocks until release
// is closed, so a test can stage a reader losing the promotion race.
type gatedBackend struct {
	slow    *storage.MemBackend
	started atomic.Bool
	first   chan struct{} // closed on the first read
	release chan struct{}
}

func (g *gatedBackend) ReadFile(name string) (storage.Data, error) {
	if g.started.CompareAndSwap(false, true) {
		close(g.first)
		<-g.release
	}
	return g.slow.ReadFile(name)
}

func (g *gatedBackend) Size(name string) (int64, error) { return g.slow.Size(name) }

// TestLostRaceSkipsCompression: a reader whose slow-tier read returns after
// another reader already promoted the name must not compress a second copy
// only to drop it.
func TestLostRaceSkipsCompression(t *testing.T) {
	env := conc.NewReal()
	mem := storage.NewMemBackend()
	mem.Add("x", patternedContent(0, 64<<10))
	g := &gatedBackend{slow: mem, first: make(chan struct{}), release: make(chan struct{})}
	b, err := NewBackend(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1, Compress: true}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	loser := make(chan error, 1)
	go func() {
		d, err := b.ReadFile("x")
		d.Release()
		loser <- err
	}()
	<-g.first
	d, err := b.ReadFile("x") // the winner: misses, compresses, admits
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	won := b.Stats()
	if won.Promotions != 1 || won.PromoteTime <= 0 {
		t.Fatalf("winner did not promote: %+v", won)
	}
	close(g.release)
	if err := <-loser; err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.SlowReads != 2 || st.Promotions != 1 || st.Residents != 1 {
		t.Fatalf("stats = %+v, want 2 slow reads and one resident", st)
	}
	if st.PromoteTime != won.PromoteTime {
		t.Fatalf("losing reader did %v of promote work on a resident name", st.PromoteTime-won.PromoteTime)
	}
	if st.TrackedNames != 0 {
		t.Fatalf("TrackedNames = %d, want 0 (a resident's reads count in its freq)", st.TrackedNames)
	}
}
