package mempool

import (
	"syscall"
	"testing"
	"unsafe"
)

// exportFD exports p and returns the raw read-only descriptor.
func exportFD(t *testing.T, p *Pool) int {
	t.Helper()
	f, err := p.Export()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := syscall.Dup(int(f.Fd()))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	return fd
}

// TestArenaExportBacksBuffers: once exported, the pool's buffers are arena
// slots that a mapping of the exported file sees at their offsets, views
// report their own offsets, and heap buffers from before the export leave
// the pool instead of being recycled.
func TestArenaExportBacksBuffers(t *testing.T) {
	p := New(Config{MinSize: 4096, MaxSize: 1 << 20, Debug: true})
	defer p.Close()
	before := p.Get(5000)
	heap := p.Get(5000)
	heap.Release() // parked on the free list, then dropped by Export

	m, err := MapArena(exportFD(t, p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if s := p.Stats(); s.FreeBuffers != 0 {
		t.Fatalf("%d heap buffers still parked after Export", s.FreeBuffers)
	}
	if _, ok := p.ArenaOffset(before, before.Bytes()); ok {
		t.Fatal("a heap buffer reported an arena offset")
	}
	before.Release()
	if s := p.Stats(); s.FreeBuffers != 0 {
		t.Fatal("a pre-export heap buffer was recycled into an exported pool")
	}

	r := p.Get(100 << 10)
	b := r.Bytes()
	for i := range b {
		b[i] = byte(i * 13)
	}
	view := b[1000:5000]
	off, ok := p.ArenaOffset(r, view)
	if !ok {
		t.Fatal("arena buffer has no offset")
	}
	got, err := m.Slice(off, int64(len(view)))
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(got) != unsafe.SliceData(view) {
		t.Fatal("this process mapped the arena twice")
	}
	other := p.Get(100 << 10)
	if _, ok := p.ArenaOffset(r, other.Bytes()); ok {
		t.Fatal("a slice of another buffer reported an offset through r")
	}
	other.Release()
	if _, err := m.Slice(off, 1<<40); err == nil {
		t.Fatal("a range past the arena file was mapped")
	}
	r.Release()
	if r2 := p.Get(100 << 10); unsafe.SliceData(r2.Bytes()) != unsafe.SliceData(b) {
		t.Fatal("arena slot not recycled")
	} else {
		r2.Release()
	}
	if leaks := p.Leaks(); len(leaks) != 0 {
		t.Fatalf("leaks:\n%s", FormatLeaks(leaks))
	}
}

// TestArenaUnmappedAfterLastHolder: Close keeps the arena mapped while a
// slot is outstanding or another holder maps it, and unmaps it after.
func TestArenaUnmappedAfterLastHolder(t *testing.T) {
	p := New(Config{})
	m, err := MapArena(exportFD(t, p))
	if err != nil {
		t.Fatal(err)
	}
	key := m.key
	r := p.Get(64 << 10)
	p.Close()
	mapped := func() bool {
		registry.mu.Lock()
		defer registry.mu.Unlock()
		return registry.m[key] != nil
	}
	if !mapped() {
		t.Fatal("arena unmapped with a slot outstanding")
	}
	r.Bytes()[0] = 1 // still mapped: no fault
	r.Release()
	if !mapped() {
		t.Fatal("arena unmapped while a client still maps it")
	}
	m.Close()
	if mapped() {
		t.Fatal("arena still mapped after its last holder")
	}
	if r2 := p.Get(64 << 10); r2.arena != nil {
		t.Fatal("a closed pool handed out an arena slot")
	}
}

type recordingLender struct{ tags []uint64 }

func (l *recordingLender) Return(tag uint64) { l.tags = append(l.tags, tag) }

// TestBorrowReturnsTagOnce: a Borrow ref hands its tag back on the final
// release only, never writes the borrowed bytes (even in Debug mode), and
// recycles its Ref struct.
func TestBorrowReturnsTagOnce(t *testing.T) {
	p := New(Config{Debug: true})
	l := &recordingLender{}
	lent := []byte("borrowed bytes")
	r := p.Borrow(lent, l, 7)
	r.Retain()
	r.Release()
	if len(l.tags) != 0 {
		t.Fatal("tag returned before the final release")
	}
	r.Release()
	if len(l.tags) != 1 || l.tags[0] != 7 {
		t.Fatalf("tags returned %v, want [7]", l.tags)
	}
	if string(lent) != "borrowed bytes" {
		t.Fatal("borrowed bytes were poisoned")
	}
	if r2 := p.Borrow(lent, l, 8); r2 != r {
		t.Fatal("Borrow ref not recycled")
	} else {
		r2.Release()
	}
	if s := p.Stats(); s.Outstanding != 0 || s.Gets != 2 || s.Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
}
