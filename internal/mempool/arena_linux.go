//go:build linux

package mempool

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// arenaReserve is the address span reserved for one arena mapping: 16 GiB
// on 64-bit hosts, 1 GiB on 32-bit ones. The reservation is PROT_NONE and
// MAP_NORESERVE, so it costs no memory; only the extents the arena file
// covers are mapped.
const arenaReserve = 1 << 30 << (4 * (^uint(0) >> 63))

// arenaGrow is the step by which an arena file grows.
const arenaGrow = 4 << 20

// memfdSyscall is memfd_create's number on the 64-bit architectures whose
// mmap takes its arguments in registers; elsewhere pools stay on the heap.
// The syscall package predates memfd_create on most architectures.
func memfdSyscall() uintptr {
	switch runtime.GOARCH {
	case "amd64":
		return 319
	case "arm64", "loong64", "riscv64":
		return 279
	case "ppc64", "ppc64le":
		return 360
	}
	return 0
}

// fileKey identifies an arena file across descriptors and processes.
type fileKey struct{ dev, ino uint64 }

// Mapping is this process's one mapping of an arena file, shared by every
// pool and client in the process that uses the file. VmRSS counts a shared
// page once per mapping, so a second mapping of the same arena would count
// every leased sample twice.
type Mapping struct {
	key    fileKey
	fd     int
	prot   int
	mem    []byte       // the reserved span; mem[:mapped] is backed by the file
	mapped atomic.Int64 // bytes of the file mapped so far
	mu     sync.Mutex   // serialises extending the mapping
	refs   int          // holders in this process, guarded by registry.mu
}

// registry maps arena files to this process's mapping of them.
var registry struct {
	mu sync.Mutex
	m  map[fileKey]*Mapping
}

func fstat(fd int) (fileKey, int64, error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return fileKey{}, 0, err
	}
	return fileKey{uint64(st.Dev), uint64(st.Ino)}, st.Size, nil
}

// attach returns this process's mapping of the file behind fd, reusing an
// existing one. It takes ownership of fd.
func attach(fd, prot int) (*Mapping, error) {
	key, _, err := fstat(fd)
	if err != nil {
		syscall.Close(fd)
		return nil, err
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if m := registry.m[key]; m != nil {
		m.refs++
		syscall.Close(fd)
		return m, nil
	}
	mem, err := syscall.Mmap(-1, 0, arenaReserve, syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("mempool: reserve arena span: %w", err)
	}
	if registry.m == nil {
		registry.m = make(map[fileKey]*Mapping)
	}
	m := &Mapping{key: key, fd: fd, prot: prot, mem: mem, refs: 1}
	registry.m[key] = m
	return m, nil
}

// MapArena maps the arena file another pool exported (Pool.Export),
// read-only, or reuses this process's existing mapping of the same file.
// It takes ownership of fd. Close the Mapping when done with it.
func MapArena(fd int) (*Mapping, error) { return attach(fd, syscall.PROT_READ) }

// Close drops one holder; the last one unmaps the file.
func (m *Mapping) Close() {
	registry.mu.Lock()
	m.refs--
	last := m.refs == 0
	if last {
		delete(registry.m, m.key)
	}
	registry.mu.Unlock()
	if last {
		syscall.Munmap(m.mem)
		syscall.Close(m.fd)
	}
}

// Slice returns the n bytes at offset off of the arena file. It maps
// extents the file has grown by since the last call; offsets beyond the
// file are an error, never a fault.
func (m *Mapping) Slice(off, n int64) ([]byte, error) {
	end := off + n
	if off < 0 || n < 0 || end < off {
		return nil, fmt.Errorf("mempool: arena range [%d, +%d) invalid", off, n)
	}
	if end > m.mapped.Load() {
		if err := m.ensure(end); err != nil {
			return nil, err
		}
	}
	return m.mem[off:end:end], nil
}

// ensure maps the file up to its current size, which must reach end.
func (m *Mapping) ensure(end int64) error {
	_, size, err := fstat(m.fd)
	if err != nil {
		return err
	}
	if size > int64(len(m.mem)) {
		size = int64(len(m.mem))
	}
	if end > size {
		return fmt.Errorf("mempool: arena range ends at %d beyond the %d-byte file", end, size)
	}
	return m.extend(size)
}

// extend maps the file from the current watermark to end into the reserved
// span. The watermark is always a multiple of the page size, because the
// owner grows the file in arenaGrow steps.
func (m *Mapping) extend(end int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	from := m.mapped.Load()
	if end <= from {
		return nil
	}
	addr := uintptr(unsafe.Pointer(&m.mem[from]))
	_, _, errno := syscall.Syscall6(syscall.SYS_MMAP, addr, uintptr(end-from), uintptr(m.prot),
		syscall.MAP_SHARED|syscall.MAP_FIXED, uintptr(m.fd), uintptr(from))
	if errno != 0 {
		return fmt.Errorf("mempool: map arena extent: %w", errno)
	}
	m.mapped.Store(end)
	return nil
}

// arena is a pool's shared-memory backing: a memfd carved into slots by a
// bump pointer, grown by ftruncate and mapped extent by extent.
type arena struct {
	m *Mapping

	mu     sync.Mutex
	top    int64           // bump pointer
	vacant map[int][]int64 // slot size -> offsets of slots the pool let go
	live   int             // slots the pool holds or has handed out
	closed bool            // the pool let go of the arena
}

func newArena() (*arena, error) {
	nr := memfdSyscall()
	if nr == 0 {
		return nil, errNoArena
	}
	name, err := syscall.BytePtrFromString("prisma-arena")
	if err != nil {
		return nil, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("mempool: memfd_create: %w", errno)
	}
	m, err := attach(int(fd), syscall.PROT_READ|syscall.PROT_WRITE)
	if err != nil {
		return nil, err
	}
	return &arena{m: m, vacant: make(map[int][]int64)}, nil
}

// readOnly reopens the arena file read-only: a process mapping the new
// descriptor cannot map it writable.
func (a *arena) readOnly() (*os.File, error) {
	fd, err := syscall.Open("/proc/self/fd/"+strconv.Itoa(a.m.fd), syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("mempool: reopen arena read-only: %w", err)
	}
	return os.NewFile(uintptr(fd), "prisma-arena"), nil
}

// alloc carves a slot of size bytes, reusing a vacant one first. It fails
// once the reserved span is full or the arena is closed.
func (a *arena) alloc(size int) ([]byte, int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, 0, false
	}
	var off int64
	if v := a.vacant[size]; len(v) > 0 {
		off = v[len(v)-1]
		a.vacant[size] = v[:len(v)-1]
	} else {
		end := a.top + int64(size)
		if end > int64(len(a.m.mem)) {
			return nil, 0, false
		}
		if end > a.m.mapped.Load() {
			grown := (end + arenaGrow - 1) / arenaGrow * arenaGrow
			if grown > int64(len(a.m.mem)) {
				grown = int64(len(a.m.mem))
			}
			if syscall.Ftruncate(a.m.fd, grown) != nil || a.m.extend(grown) != nil {
				return nil, 0, false
			}
		}
		off, a.top = a.top, end
	}
	a.live++
	return a.m.mem[off : off+int64(size) : off+int64(size)], off, true
}

// free takes back a slot the pool discards, returning its pages to the
// system; the slot is reused before the arena grows again.
func (a *arena) free(off int64, size int) {
	page := int64(os.Getpagesize())
	if off%page == 0 && int64(size)%page == 0 {
		_ = syscall.Madvise(a.m.mem[off:off+int64(size)], syscall.MADV_REMOVE)
	}
	a.mu.Lock()
	a.vacant[size] = append(a.vacant[size], off)
	a.mu.Unlock()
	a.drop()
}

// drop ends one slot's life; the last slot of a closed arena unmaps it.
func (a *arena) drop() {
	a.mu.Lock()
	a.live--
	done := a.closed && a.live == 0
	a.mu.Unlock()
	if done {
		a.m.Close()
	}
}

// close marks the arena unused by its pool; it is unmapped once no slot is
// live.
func (a *arena) close() {
	a.mu.Lock()
	a.closed = true
	done := a.live == 0
	a.mu.Unlock()
	if done {
		a.m.Close()
	}
}
