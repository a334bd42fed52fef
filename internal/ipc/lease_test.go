package ipc

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// leaseFixture is a server over an in-memory dataset whose pool the server
// exports, with the contents for byte checks. Its pools run in Debug mode
// unless the test measures allocations (Debug's leak ledger allocates).
type leaseFixture struct {
	srv      *Server
	pool     *mempool.Pool
	sock     string
	names    []string
	contents map[string][]byte
	debug    bool
}

func startLeaseServer(t *testing.T, nFiles, size int, cfg ServeConfig) *leaseFixture {
	return startLeaseServerDebug(t, nFiles, size, cfg, true)
}

func startLeaseServerDebug(t *testing.T, nFiles, size int, cfg ServeConfig, debug bool) *leaseFixture {
	t.Helper()
	if !arenaSupported {
		t.Skip("shared-memory arenas need Linux")
	}
	mem := storage.NewMemBackend()
	fx := &leaseFixture{contents: make(map[string][]byte), debug: debug}
	for i := 0; i < nFiles; i++ {
		name := fmt.Sprintf("l%03d.bin", i)
		fx.names = append(fx.names, name)
		fx.contents[name] = mem.AddSeeded(name, size+i, int64(i)+1)
	}
	fx.pool = mempool.New(mempool.Config{Debug: debug})
	mem.SetBufferPool(fx.pool)
	env := conc.NewReal()
	pf, err := core.NewPrefetcher(env, mem, core.PrefetcherConfig{
		InitialProducers: 1, MaxProducers: 2, InitialBufferCapacity: 4, MaxBufferCapacity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	stage := core.NewStage(env, mem, core.NewPrefetchObject(pf))
	stage.SetBufferPool(fx.pool)
	pf.Start()
	fx.sock = filepath.Join(t.TempDir(), "lease.sock")
	fx.srv, err = ServeWithConfig(fx.sock, stage, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fx.srv.Close()
		stage.Close()
		fx.pool.Close()
	})
	return fx
}

// dialPooled connects a client with a receive pool.
func (fx *leaseFixture) dialPooled(t *testing.T) (*Client, *mempool.Pool) {
	t.Helper()
	c, err := Dial(fx.sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	pool := mempool.New(mempool.Config{Debug: fx.debug})
	c.SetBufferPool(pool)
	return c, pool
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// auditClean checks both pools returned every buffer and the server holds
// no lease.
func (fx *leaseFixture) auditClean(t *testing.T, client *mempool.Pool) {
	t.Helper()
	if n := client.Outstanding(); n != 0 {
		t.Fatalf("client pool: %d outstanding\n%s", n, mempool.FormatLeaks(client.Leaks()))
	}
	waitFor(t, "server pool to drain", func() bool { return fx.pool.Outstanding() == 0 })
	if n := fx.srv.LeaseStats().Outstanding; n != 0 {
		t.Fatalf("server reports %d outstanding leases", n)
	}
	if leaks := fx.pool.Leaks(); len(leaks) != 0 {
		t.Fatalf("server pool leaks:\n%s", mempool.FormatLeaks(leaks))
	}
}

// TestLeasedReadRoundTrip: a pooled client receives every sample by lease,
// byte-identical to the dataset, and once it releases them an idle flush
// returns the ids so both pools audit clean with the client still
// connected.
func TestLeasedReadRoundTrip(t *testing.T) {
	fx := startLeaseServer(t, 8, 20<<10, ServeConfig{})
	c, clientPool := fx.dialPooled(t)
	for _, n := range fx.names {
		d, err := c.Read(n)
		if err != nil {
			t.Fatalf("Read(%s): %v", n, err)
		}
		if !bytes.Equal(d.Bytes, fx.contents[n]) {
			t.Fatalf("Read(%s): leased bytes differ from the dataset", n)
		}
		d.Release()
	}
	st := fx.srv.LeaseStats()
	if st.Leased != int64(len(fx.names)) || st.Inline != 0 {
		t.Fatalf("lease stats %+v, want %d leased and none inline", st, len(fx.names))
	}
	fx.auditClean(t, clientPool)
}

// TestLeaseReleaseRejectsHostileIDs sends release lists a hostile or buggy
// client might: unknown, out-of-range, stale and duplicate ids. None may
// release a buffer (the server pool's outstanding count is unchanged), and
// none may double-release (the Debug pool would panic).
func TestLeaseReleaseRejectsHostileIDs(t *testing.T) {
	fx := startLeaseServer(t, 4, 8<<10, ServeConfig{})
	c, clientPool := fx.dialPooled(t)

	// Lease slot 0 (generation 0), release it, then lease slot 0 again:
	// the second lease has generation 1, so the first id is now stale.
	const staleID, heldID = uint64(0), uint64(1) << 32
	first, err := c.Read(fx.names[0])
	if err != nil {
		t.Fatal(err)
	}
	first.Release()
	held, err := c.Read(fx.names[1])
	if err != nil {
		t.Fatal(err)
	}
	if st := fx.srv.LeaseStats(); st.Leased != 2 || st.Outstanding != 1 {
		t.Fatalf("lease stats %+v, want 2 leased, 1 outstanding", st)
	}

	release := func(ids ...uint64) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		if _, err := c.exchangeLocked(OpRelease, 0, appendTrailer(nil, 0, ids)); err != nil {
			t.Fatalf("OpRelease: %v", err)
		}
	}
	before := fx.pool.Outstanding()
	rejected := fx.srv.LeaseStats().RejectedReleases
	hostile := []uint64{
		staleID,           // stale generation of a live slot
		heldID + 1,        // out of range slot
		1 << 31,           // far out of range
		^uint64(0),        // all bits set
		heldID | 7<<32,    // right slot, wrong generation
		heldID ^ 1<<63,    // right slot, corrupted generation
		uint64(1<<32 + 3), // unknown
	}
	release(hostile...)
	if got := fx.pool.Outstanding(); got != before {
		t.Fatalf("hostile ids changed server outstanding %d -> %d", before, got)
	}
	if got := fx.srv.LeaseStats().RejectedReleases - rejected; got != int64(len(hostile)) {
		t.Fatalf("rejected %d ids, want %d", got, len(hostile))
	}

	// The held lease is untouched by all of that: its bytes are intact.
	if !bytes.Equal(held.Bytes, fx.contents[fx.names[1]]) {
		t.Fatal("held lease bytes changed after hostile releases")
	}
	// Releasing it by hand, then again: exactly one buffer comes back.
	release(heldID, heldID)
	if got := fx.pool.Outstanding(); got != before-1 {
		t.Fatalf("duplicate release: outstanding %d -> %d, want -1", before, got)
	}
	// The client's own release of that id is now a duplicate as well.
	held.Release()
	d, err := c.Read(fx.names[2])
	if err != nil {
		t.Fatalf("Read after hostile releases: %v", err)
	}
	d.Release()
	if c.Reconnects() != 0 {
		t.Fatal("hostile releases cost the connection")
	}
	fx.auditClean(t, clientPool)
}

// TestLeaseBoundServesInline: a client that never releases is held to the
// per-connection lease bound; past it reads are answered inline, and
// closing the connection returns every lease.
func TestLeaseBoundServesInline(t *testing.T) {
	const size = 1<<20 - 512 // one 1 MiB size class per sample
	n := maxLeasedBytes/(1<<20) + 2
	fx := startLeaseServer(t, n, size, ServeConfig{})
	c, clientPool := fx.dialPooled(t)
	var held []storage.Data
	for _, name := range fx.names {
		d, err := c.Read(name)
		if err != nil {
			t.Fatalf("Read(%s): %v", name, err)
		}
		if !bytes.Equal(d.Bytes, fx.contents[name]) {
			t.Fatalf("Read(%s): wrong bytes", name)
		}
		held = append(held, d)
	}
	st := fx.srv.LeaseStats()
	if st.Leased != int64(maxLeasedBytes/(1<<20)) || st.Inline != 2 || st.BoundFallbacks != 2 {
		t.Fatalf("lease stats %+v, want %d leased, 2 inline by bound", st, maxLeasedBytes/(1<<20))
	}
	if got := fx.pool.Outstanding(); got != st.Leased {
		t.Fatalf("server pins %d buffers, want %d", got, st.Leased)
	}
	for i := range held {
		if !bytes.Equal(held[i].Bytes, fx.contents[fx.names[i]]) {
			t.Fatalf("held sample %d changed while held", i)
		}
	}
	// Closing without releasing returns every lease on the server.
	c.Close()
	waitFor(t, "server leases to end with the connection", func() bool { return fx.pool.Outstanding() == 0 })
	for i := range held {
		held[i].Release()
	}
	fx.auditClean(t, clientPool)
}

// TestLeaseHeldAcrossIdleTimeout: the server's idle timeout never drops a
// connection whose client holds leases — it would recycle buffers the
// client is still reading.
func TestLeaseHeldAcrossIdleTimeout(t *testing.T) {
	cfg := ServeConfig{IdleTimeout: 50 * time.Millisecond}
	fx := startLeaseServer(t, 3, 16<<10, cfg)
	c, clientPool := fx.dialPooled(t)
	d, err := c.Read(fx.names[0])
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if !bytes.Equal(d.Bytes, fx.contents[fx.names[0]]) {
		t.Fatal("held lease changed across the idle timeout")
	}
	d2, err := c.Read(fx.names[1])
	if err != nil {
		t.Fatalf("Read after idling with a lease held: %v", err)
	}
	if c.Reconnects() != 0 {
		t.Fatal("connection holding a lease was idle-dropped")
	}
	d.Release()
	d2.Release()
	fx.auditClean(t, clientPool)
}

// TestLeasedReadZeroAllocs: the leased read path allocates nothing in the
// steady state, client and server together.
func TestLeasedReadZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	fx := startLeaseServerDebug(t, 4, 32<<10, ServeConfig{}, false)
	c, _ := fx.dialPooled(t)
	read := func() {
		for _, n := range fx.names {
			d, err := c.Read(n)
			if err != nil {
				t.Fatal(err)
			}
			d.Release()
		}
	}
	read() // warm: arena negotiation, scratch buffers, interned names
	runtime.GC()
	if avg := testing.AllocsPerRun(50, read); avg != 0 {
		t.Fatalf("leased reads allocate %.2f times per %d reads", avg, len(fx.names))
	}
}

// TestLeaseSurvivesPoisonedConnection: when the client gives up on a
// connection while the caller still holds a lease on it, the connection
// stays open — the server would otherwise recycle the buffer under the
// caller — and closes once the lease is released.
func TestLeaseSurvivesPoisonedConnection(t *testing.T) {
	fx := startLeaseServer(t, 3, 24<<10, ServeConfig{})
	c, clientPool := fx.dialPooled(t)
	held, err := c.Read(fx.names[0])
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.poisonLocked()
	c.mu.Unlock()
	// The next read redials; the server recycles whatever it can.
	for i := 0; i < 3; i++ {
		d, err := c.Read(fx.names[1])
		if err != nil {
			t.Fatalf("Read after poisoning: %v", err)
		}
		d.Release()
	}
	time.Sleep(20 * time.Millisecond)
	if !bytes.Equal(held.Bytes, fx.contents[fx.names[0]]) {
		t.Fatal("lease on a poisoned connection was recycled while held")
	}
	if n := fx.srv.LeaseStats().Outstanding; n != 1 {
		t.Fatalf("server holds %d leases, want the 1 on the retired connection", n)
	}
	held.Release()
	fx.auditClean(t, clientPool)
}

// FuzzLeaseWire hardens the lease wire decoders: a read trailer (arena
// offer and accept flags, release list) and a lease response. Neither may
// panic; accepted inputs re-encode to what was consumed; and applying any
// release list to a connection's lease table releases each live lease at
// most once (the Debug pool panics on a double release) and nothing else.
func FuzzLeaseWire(f *testing.F) {
	f.Add(appendTrailer(nil, trailerAccept|trailerOffer, nil))
	f.Add(appendTrailer(nil, trailerAccept, []uint64{0, 1 << 32, 2, ^uint64(0)}))
	f.Add(appendTrailer(nil, 0, []uint64{1, 1, 1}))
	f.Add(appendLease(nil, lease{size: 4096, off: 1 << 20, n: 4096, id: 1<<32 | 3})[1:])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add([]byte("000\xff\x00")) // an overlong varint
	pool := mempool.New(mempool.Config{Debug: true, MinSize: 64, MaxSize: 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ids []uint64
		flags, err := parseTrailer(data, func(id uint64) { ids = append(ids, id) })
		if err == nil {
			var again []uint64
			flags2, err := parseTrailer(appendTrailer(nil, flags, ids), func(id uint64) { again = append(again, id) })
			if err != nil || flags2 != flags || fmt.Sprint(again) != fmt.Sprint(ids) {
				t.Fatalf("trailer flags %d ids %v re-decode as %d %v (%v)", flags, ids, flags2, again, err)
			}
		}
		if l, err := parseLease(data); err == nil {
			if l2, err := parseLease(appendLease(nil, l)[1:]); err != nil || l2 != l {
				t.Fatalf("lease %+v re-decodes as %+v (%v)", l, l2, err)
			}
		}

		// Four live leases, one already returned (its slot reused with a
		// new generation), then the fuzzed release list.
		var tab leaseTable
		for i := 0; i < 4; i++ {
			tab.add(pool.Get(64))
		}
		tab.take(1).Release()
		tab.add(pool.Get(64))
		before := pool.Outstanding()
		released := 0
		for _, id := range ids {
			if ref := tab.take(id); ref != nil {
				ref.Release()
				released++
			}
		}
		if got := before - pool.Outstanding(); got != int64(released) || tab.live != 4-released {
			t.Fatalf("released %d leases, pool returned %d, table holds %d", released, got, tab.live)
		}
		tab.releaseAll()
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("%d buffers outstanding after releasing every lease", n)
		}
	})
}

// TestLeaseConcurrentReleases shares one pooled client among readers whose
// samples are released on other goroutines, some only after the client
// closed: every lease comes back exactly once and both pools drain.
func TestLeaseConcurrentReleases(t *testing.T) {
	fx := startLeaseServer(t, 8, 12<<10, ServeConfig{})
	c, clientPool := fx.dialPooled(t)
	held := make(chan storage.Data, 64)
	var readers, releasers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				name := fx.names[(r+i)%len(fx.names)]
				d, err := c.Read(name)
				if err != nil {
					t.Errorf("Read(%s): %v", name, err)
					return
				}
				if !bytes.Equal(d.Bytes, fx.contents[name]) {
					t.Errorf("Read(%s): wrong bytes", name)
				}
				held <- d
			}
		}(r)
	}
	for r := 0; r < 2; r++ {
		releasers.Add(1)
		go func() {
			defer releasers.Done()
			for d := range held {
				d.Release()
			}
		}()
	}
	readers.Wait()
	last, err := c.Read(fx.names[0])
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	close(held)
	releasers.Wait()
	last.Release()
	fx.auditClean(t, clientPool)
}
