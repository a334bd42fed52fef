package ipc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// ServeConfig tunes server-side resilience. The zero value preserves the
// historical behaviour (no per-connection deadlines).
type ServeConfig struct {
	// IdleTimeout bounds how long a connection may sit idle between
	// requests, and how long one request frame and its response may take
	// to cross the wire (0 = none). An expired connection is dropped; the
	// client redials. A connection holding leases is never idle-dropped:
	// dropping it would recycle buffers its client may still be reading.
	IdleTimeout time.Duration
}

// Server exposes one PRISMA stage over a UNIX domain socket. Each consumer
// process holds its own connection; requests on a connection are handled
// sequentially (matching the prototype's one-client-per-worker design),
// while different connections proceed concurrently. A panic in one request
// handler is isolated to an error response on that connection, not a
// server crash.
type Server struct {
	stage    *core.Stage
	listener net.Listener
	cfg      ServeConfig
	panics   atomic.Int64

	// Payload delivery counters (LeaseStats).
	leased, inline, boundFallbacks, rejectedReleases, leasesOut atomic.Int64

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	closed    bool
	decisions func() ([]byte, error)                               // OpDecisions source (pre-marshaled JSON)
	bundle    func() ([]byte, error)                               // OpBundle source (pre-marshaled JSON)
	tenancy   *tenancy.Manager                                     // nil = single-tenant (hello still accepted)
	peerRead  func(name string, ctx obs.Ctx) (storage.Data, error) // OpPeerRead router (nil = local stage)
	// readRouter interposes on OpRead (nil = local stage) — the cluster
	// fabric's ownership routing for socket clients.
	readRouter func(tenant, name string, ctx obs.Ctx) (storage.Data, error)
	wg         sync.WaitGroup
}

// Serve starts a server for stage on the given socket path with the zero
// ServeConfig. It returns once the listener is active.
func Serve(socketPath string, stage *core.Stage) (*Server, error) {
	return ServeWithConfig(socketPath, stage, ServeConfig{})
}

// ServeWithConfig starts a server with explicit resilience settings.
func ServeWithConfig(socketPath string, stage *core.Stage, cfg ServeConfig) (*Server, error) {
	l, err := net.Listen("unix", socketPath)
	if err != nil {
		return nil, fmt.Errorf("ipc: listen %s: %w", socketPath, err)
	}
	s := &Server{stage: stage, listener: l, cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetDecisionSource wires the OpDecisions opcode to a provider of the
// autotuner's decision audit log, pre-marshaled as JSON. The indirection
// keeps ipc decoupled from the control package.
func (s *Server) SetDecisionSource(f func() ([]byte, error)) {
	s.mu.Lock()
	s.decisions = f
	s.mu.Unlock()
}

// SetBundleSource wires the OpBundle opcode to a provider of the one-shot
// diagnostic bundle, pre-marshaled as JSON (httpadmin.Bundle in practice).
// The indirection keeps ipc decoupled from the bundle assembly.
func (s *Server) SetBundleSource(f func() ([]byte, error)) {
	s.mu.Lock()
	s.bundle = f
	s.mu.Unlock()
}

// SetTenantManager wires multi-tenant QoS: hello frames authenticate
// against the manager, OpTenants/OpSetTenant expose its registry, and
// admission decisions (made by the stage's tenant gate, which shares this
// manager) surface as typed overload responses. Call before clients
// connect.
func (s *Server) SetTenantManager(m *tenancy.Manager) {
	s.mu.Lock()
	s.tenancy = m
	s.mu.Unlock()
}

// SetPeerReadHandler wires the OpPeerRead opcode to the cluster fabric's
// owner-side service routine (peer-serve accounting and spans happen
// there). Without a handler, OpPeerRead falls back to the local stage —
// a single-node server still answers peers correctly, just without
// cluster counters. Call before peers connect; the indirection keeps ipc
// decoupled from the placement package.
func (s *Server) SetPeerReadHandler(f func(name string, ctx obs.Ctx) (storage.Data, error)) {
	s.mu.Lock()
	s.peerRead = f
	s.mu.Unlock()
}

func (s *Server) peerReadHandler() func(name string, ctx obs.Ctx) (storage.Data, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerRead
}

// SetReadRouter interposes on client OpRead requests — the cluster fabric
// uses it so socket clients get the same ownership routing (local buffer,
// peer forward, slow-store failover) as in-process readers. Without a
// router, reads go straight to the local stage. The router receives the
// connection's hello-resolved tenant so it can keep tenant-attributed
// reads on the local admission path. Call before clients connect.
func (s *Server) SetReadRouter(f func(tenant, name string, ctx obs.Ctx) (storage.Data, error)) {
	s.mu.Lock()
	s.readRouter = f
	s.mu.Unlock()
}

func (s *Server) readRouterFn() func(tenant, name string, ctx obs.Ctx) (storage.Data, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readRouter
}

func (s *Server) tenantManager() *tenancy.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenancy
}

// Panics reports how many request handlers panicked and were isolated.
func (s *Server) Panics() int64 { return s.panics.Load() }

// LeaseStats reports how read payloads were delivered: by lease on the
// exported pool's arena or inline through the socket.
func (s *Server) LeaseStats() core.LeaseStats {
	return core.LeaseStats{
		Leased:           s.leased.Load(),
		Inline:           s.inline.Load(),
		BoundFallbacks:   s.boundFallbacks.Load(),
		RejectedReleases: s.rejectedReleases.Load(),
		Outstanding:      s.leasesOut.Load(),
	}
}

// Addr reports the socket address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connState is one connection's reusable scratch: the buffered request
// reader, the response head builder, the vectored-write segment list, and
// the interning table for repeated file names. A training epoch re-reads
// the same name set, so after the first epoch the request loop's
// steady-state allocation count is zero.
type connState struct {
	in    frameReader // request frames (oversized requests fall back to alloc)
	head  []byte      // response head builder (status + fixed fields)
	wbuf  []byte      // frame header + head, the vectored write's first segment
	segs  [2][]byte   // backing array for the vectored-write segment list
	bufs  net.Buffers // rebuilt from segs per write: WriteTo consumes the slice
	names map[string]string

	// tenant is the connection's identity, set by the hello frame; empty
	// resolves to the default tenant at the gate. It lives on the
	// connection, not the request: one consumer process = one identity.
	tenant string
	// role is the hello frame's optional third field: "peer" marks a
	// fabric node's forwarding connection, "worker" (or absent, for
	// pre-cluster clients) an ordinary consumer.
	role string

	// arena is the pool whose arena the client was sent; from then on its
	// reads may be answered by lease (nil: always inline). arenaFile is
	// the read-only arena descriptor the next response carries.
	arena     *mempool.Pool
	arenaFile *os.File
	leases    leaseTable
}

func newConnState() *connState {
	return &connState{
		in:    frameReader{buf: make([]byte, 4096)},
		head:  make([]byte, 0, 64),
		wbuf:  make([]byte, 0, 128),
		names: make(map[string]string),
	}
}

// internName converts the wire bytes of a file name to a string, reusing
// the allocation made the first time this connection saw the name.
func (cs *connState) internName(b []byte) string {
	if s, ok := cs.names[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	cs.names[s] = s
	return s
}

// response couples a response head with an optional zero-copy payload: body
// is appended on the wire after head without being copied into it, and ref
// (when non-nil) is the pooled lease backing body, released once the frame
// is written.
type response struct {
	head []byte
	body []byte
	ref  *mempool.Ref
}

// leaseTable is one connection's outstanding leases. A lease id is the
// slot index with the slot's generation in the high 32 bits, so a stale or
// duplicate id never matches a slot's current lease.
type leaseTable struct {
	slots []leaseSlot
	free  []uint32 // indices of empty slots
	live  int
	bytes int64 // pinned by live leases, counted by backing buffer
}

type leaseSlot struct {
	ref *mempool.Ref // nil: empty
	gen uint32
}

func (t *leaseTable) add(ref *mempool.Ref) uint64 {
	var i uint32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.slots = append(t.slots, leaseSlot{})
		i = uint32(len(t.slots) - 1)
	}
	t.slots[i].ref = ref
	t.live++
	t.bytes += int64(ref.Cap())
	return uint64(t.slots[i].gen)<<32 | uint64(i)
}

// take ends lease id and returns its buffer reference for the caller to
// release, or nil for an id that names no live lease.
func (t *leaseTable) take(id uint64) *mempool.Ref {
	i := id & math.MaxUint32
	if i >= uint64(len(t.slots)) {
		return nil
	}
	sl := &t.slots[i]
	if sl.ref == nil || sl.gen != uint32(id>>32) {
		return nil
	}
	ref := sl.ref
	sl.ref = nil
	sl.gen++
	t.live--
	t.bytes -= int64(ref.Cap())
	t.free = append(t.free, uint32(i))
	return ref
}

// releaseAll ends every lease: the connection closed.
func (t *leaseTable) releaseAll() {
	for i := range t.slots {
		if ref := t.slots[i].ref; ref != nil {
			t.slots[i].ref = nil
			ref.Release()
		}
	}
	t.live, t.bytes = 0, 0
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cs := newConnState()
	defer func() {
		// The client's leases end with its connection.
		s.leasesOut.Add(-int64(cs.leases.live))
		cs.leases.releaseAll()
		if cs.arenaFile != nil {
			cs.arenaFile.Close()
		}
	}()
	for {
		if s.cfg.IdleTimeout > 0 {
			deadline := time.Time{}
			if cs.leases.live == 0 {
				deadline = time.Now().Add(s.cfg.IdleTimeout)
			}
			_ = conn.SetReadDeadline(deadline)
		}
		opcode, trace, payload, err := cs.in.next(conn)
		if err != nil {
			return // EOF, idle timeout, or broken peer: drop the connection
		}
		resp := s.safeHandle(cs, opcode, trace, payload)
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		err = s.writeResponse(conn, cs, opcode, trace, resp)
		if resp.ref != nil {
			// The payload crossed the socket (or failed to); either way the
			// server's reference — inherited from the evicting Take — ends
			// here.
			resp.ref.Release()
		}
		if err != nil {
			return
		}
	}
}

// writeResponse frames head+body with a vectored write, so a pooled
// payload goes from the buffer pool to the socket without an intermediate
// copy. Caller releases resp.ref.
func (s *Server) writeResponse(conn net.Conn, cs *connState, opcode byte, trace uint64, r response) error {
	payloadLen := len(r.head) + len(r.body)
	if payloadLen+9 > MaxFrame {
		return ErrFrameTooLarge
	}
	// One segment carries frame header + head; the payload rides as the
	// second segment (writev on UNIX sockets), untouched.
	cs.wbuf = appendFrameHeader(cs.wbuf[:0], opcode, trace, payloadLen)
	cs.wbuf = append(cs.wbuf, r.head...)
	if f := cs.arenaFile; f != nil {
		cs.arenaFile = nil
		defer f.Close()
		if err := writeWithFile(conn, cs.wbuf, f); err != nil || len(r.body) == 0 {
			return err
		}
		_, err := conn.Write(r.body)
		return err
	}
	if len(r.body) == 0 {
		_, err := conn.Write(cs.wbuf)
		return err
	}
	// net.Buffers.WriteTo consumes the slice it is called on (advancing it
	// and dropping capacity), so the segment list is rebuilt from the fixed
	// backing array each time rather than re-appended in place.
	cs.segs[0], cs.segs[1] = cs.wbuf, r.body
	cs.bufs = net.Buffers(cs.segs[:])
	_, err := cs.bufs.WriteTo(conn)
	return err
}

// safeHandle isolates a panicking handler to an error response: one bad
// request (or a bug in one opcode path) must not take down the stage every
// other consumer is reading through.
func (s *Server) safeHandle(cs *connState, opcode byte, trace uint64, payload []byte) (resp response) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			resp = response{head: errResponse(fmt.Errorf("handler panic on opcode %d: %v", opcode, r))}
		}
	}()
	return s.handle(cs, opcode, trace, payload)
}

// handle dispatches one request and builds the response.
func (s *Server) handle(cs *connState, opcode byte, trace uint64, payload []byte) response {
	switch opcode {
	case OpRead:
		nameBytes, trailer, err := readStringBytes(payload)
		if err != nil {
			return response{head: errResponse(err)}
		}
		flags, err := s.applyTrailer(cs, trailer)
		if err != nil {
			return response{head: errResponse(err)}
		}
		if flags&trailerOffer != 0 && cs.arena == nil {
			// Whatever the answer, the descriptor rides it: the client
			// asks once per connection. Exporting first lets this very
			// read be leased.
			s.exportArena(cs)
		}
		return s.serveRead(cs, cs.internName(nameBytes), trace, flags&trailerAccept != 0)

	case OpPeerRead:
		nameBytes, _, err := readStringBytes(payload)
		if err != nil {
			return response{head: errResponse(err)}
		}
		name := cs.internName(nameBytes)
		ctx := obs.Ctx{Trace: trace, Sampled: trace != 0}
		var data storage.Data
		if pr := s.peerReadHandler(); pr != nil {
			// The fabric's owner-side routine: peer-serve counters and
			// spans live there.
			data, err = pr(name, ctx)
		} else {
			data, err = s.stage.ReadCtx(name, ctx)
		}
		if err != nil {
			var oe *tenancy.OverloadError
			if errors.As(err, &oe) {
				return response{head: overloadResponse(oe)}
			}
			return response{head: errResponse(err)}
		}
		return s.inlineResponse(cs, data)

	case OpRelease:
		if _, err := s.applyTrailer(cs, payload); err != nil {
			return response{head: errResponse(err)}
		}
		return response{head: okResponse(nil)}

	case OpHello:
		name, rest, err := readString(payload)
		if err != nil {
			return response{head: errResponse(err)}
		}
		secret, rest, err := readString(rest)
		if err != nil {
			return response{head: errResponse(err)}
		}
		// Optional third field (cluster fabric: the connection's role).
		// Pre-cluster clients send two strings; the server has always
		// ignored trailing bytes here, so both directions stay compatible.
		if len(rest) > 0 {
			role, _, err := readString(rest)
			if err != nil {
				return response{head: errResponse(err)}
			}
			cs.role = role
		}
		resolved := name
		if m := s.tenantManager(); m != nil {
			resolved, err = m.Authenticate(name, secret)
			if err != nil {
				return response{head: errResponse(err)}
			}
		} else if resolved == "" {
			// Single-tenant server: accept the hello so clients can be
			// written tenancy-first; identity is recorded but unenforced.
			resolved = tenancy.DefaultTenant
		}
		cs.tenant = resolved
		return response{head: okResponse(appendString(nil, resolved))}

	default:
		return response{head: s.handleControl(opcode, payload)}
	}
}

// serveRead executes one client read through the read router or the stage
// and answers it, by lease when the request accepts one.
func (s *Server) serveRead(cs *connState, name string, trace uint64, accept bool) response {
	// A non-zero trace continues the client's sampled span; the
	// server-side handling span shares its id so client and server
	// views of one read join into a single trace.
	ctx := obs.Ctx{Trace: trace, Sampled: trace != 0}
	tracer := s.stage.Tracer()
	start := tracer.Now()
	var (
		data storage.Data
		err  error
	)
	if rr := s.readRouterFn(); rr != nil {
		data, err = rr(cs.tenant, name, ctx)
	} else {
		data, err = s.stage.ReadTenantCtx(cs.tenant, name, ctx)
	}
	if ctx.Sampled {
		sp := obs.Span{
			Trace:   ctx.Trace,
			Stage:   obs.StageIPCServe,
			Name:    name,
			At:      start,
			Latency: tracer.Now() - start,
			Size:    data.Size,
		}
		if err != nil {
			sp.Error = err.Error()
		}
		tracer.Record(sp)
	}
	if err != nil {
		// A load shed is typed end to end: the client's backoff reads
		// the retry-after hint instead of treating it as a read failure.
		var oe *tenancy.OverloadError
		if errors.As(err, &oe) {
			return response{head: overloadResponse(oe)}
		}
		return response{head: errResponse(err)}
	}
	if !accept {
		return s.inlineResponse(cs, data)
	}
	return s.readResponse(cs, data)
}

// applyTrailer ends the leases a read or release request returns and
// reports the trailer's flags. Ids naming no live lease of this connection
// are counted and ignored.
func (s *Server) applyTrailer(cs *connState, trailer []byte) (uint64, error) {
	return parseTrailer(trailer, func(id uint64) {
		if ref := cs.leases.take(id); ref != nil {
			s.leasesOut.Add(-1)
			ref.Release()
		} else {
			s.rejectedReleases.Add(1)
		}
	})
}

// exportArena exports the stage's pool for this connection; the next
// response carries the read-only arena descriptor. Without a pool or an
// arena (pool off, non-Linux) the connection stays inline.
func (s *Server) exportArena(cs *connState) {
	pool := s.stage.BufferPool()
	if pool == nil {
		return
	}
	f, err := pool.Export()
	if err != nil {
		return
	}
	cs.arena, cs.arenaFile = pool, f
}

// readResponse answers a read by lease when the payload is a slot of the
// arena this connection maps and the connection is within its lease bound,
// and inline otherwise. A lease keeps the server's reference until the
// client returns the id or the connection closes.
func (s *Server) readResponse(cs *connState, data storage.Data) response {
	if cs.arena == nil {
		return s.inlineResponse(cs, data)
	}
	off, ok := cs.arena.ArenaOffset(data.Ref, data.Bytes)
	if !ok {
		return s.inlineResponse(cs, data)
	}
	if cs.leases.bytes+int64(data.Ref.Cap()) > maxLeasedBytes {
		s.boundFallbacks.Add(1)
		return s.inlineResponse(cs, data)
	}
	id := cs.leases.add(data.Ref)
	s.leased.Add(1)
	s.leasesOut.Add(1)
	return response{head: appendLease(cs.head[:0], lease{
		size: uint64(data.Size), off: uint64(off), n: uint64(len(data.Bytes)), id: id,
	})}
}

// inlineResponse carries the payload itself. Head: status + size + payload
// length; the payload is written vectored, straight from the (pooled) read
// buffer.
func (s *Server) inlineResponse(cs *connState, data storage.Data) response {
	if len(data.Bytes) > 0 {
		s.inline.Add(1)
	}
	head := append(cs.head[:0], statusOK)
	head = binary.AppendUvarint(head, uint64(data.Size))
	head = binary.AppendUvarint(head, uint64(len(data.Bytes)))
	return response{head: head, body: data.Bytes, ref: data.Ref}
}

// handleControl dispatches the non-read opcodes, whose responses are small
// head-only frames.
func (s *Server) handleControl(opcode byte, payload []byte) []byte {
	switch opcode {
	case OpPlan:
		count, k := binary.Uvarint(payload)
		if k <= 0 {
			return errResponse(errors.New("malformed plan count"))
		}
		payload = payload[k:]
		// Cap the preallocation: the count is attacker-controlled; the
		// slice still grows to the actual number of parsed names.
		prealloc := count
		if prealloc > 4096 {
			prealloc = 4096
		}
		names := make([]string, 0, prealloc)
		for i := uint64(0); i < count; i++ {
			var name string
			var err error
			name, payload, err = readString(payload)
			if err != nil {
				return errResponse(err)
			}
			names = append(names, name)
		}
		res, err := s.stage.SubmitEpoch(names)
		if err != nil {
			return errResponse(err)
		}
		// Epoch id + enqueued count; pre-epoch clients ignore the payload.
		blob := binary.AppendUvarint(nil, uint64(res.Epoch))
		blob = binary.AppendUvarint(blob, uint64(res.Enqueued))
		return okResponse(blob)

	case OpCancelEpoch:
		id, k := binary.Uvarint(payload)
		if k <= 0 {
			return errResponse(errors.New("malformed epoch id"))
		}
		dropped, err := s.stage.CancelEpoch(core.EpochID(id))
		if err != nil {
			return errResponse(err)
		}
		return okResponse(binary.AppendUvarint(nil, uint64(dropped)))

	case OpEpochs:
		blob, err := json.Marshal(s.stage.Epochs())
		if err != nil {
			return errResponse(err)
		}
		return okResponse(blob)

	case OpStats:
		stats := s.stage.Stats()
		stats.Leases = s.LeaseStats()
		blob, err := json.Marshal(stats)
		if err != nil {
			return errResponse(err)
		}
		return okResponse(blob)

	case OpSetProducers:
		n, k := binary.Uvarint(payload)
		if k <= 0 {
			return errResponse(errors.New("malformed producer count"))
		}
		s.stage.SetProducers(int(n))
		return okResponse(nil)

	case OpSetBuffer:
		n, k := binary.Uvarint(payload)
		if k <= 0 {
			return errResponse(errors.New("malformed buffer capacity"))
		}
		s.stage.SetBufferCapacity(int(n))
		return okResponse(nil)

	case OpSetShards:
		n, k := binary.Uvarint(payload)
		if k <= 0 {
			return errResponse(errors.New("malformed shard count"))
		}
		s.stage.SetBufferShards(int(n))
		return okResponse(nil)

	case OpSetTraceSampling:
		if len(payload) != 8 {
			return errResponse(errors.New("malformed sampling probability"))
		}
		p := math.Float64frombits(binary.BigEndian.Uint64(payload))
		if math.IsNaN(p) || p < 0 || p > 1 {
			return errResponse(fmt.Errorf("sampling probability %v outside [0, 1]", p))
		}
		s.stage.SetTraceSampling(p)
		return okResponse(nil)

	case OpDecisions:
		s.mu.Lock()
		src := s.decisions
		s.mu.Unlock()
		if src == nil {
			return errResponse(errors.New("decision log unavailable: no controller attached"))
		}
		blob, err := src()
		if err != nil {
			return errResponse(err)
		}
		return okResponse(blob)

	case OpBundle:
		s.mu.Lock()
		src := s.bundle
		s.mu.Unlock()
		if src == nil {
			return errResponse(errors.New("diagnostic bundle unavailable: no bundle source attached"))
		}
		blob, err := src()
		if err != nil {
			return errResponse(err)
		}
		return okResponse(blob)

	case OpTenants:
		m := s.tenantManager()
		if m == nil {
			return errResponse(errors.New("tenant stats unavailable: no tenancy manager attached"))
		}
		blob, err := json.Marshal(m.Stats())
		if err != nil {
			return errResponse(err)
		}
		return okResponse(blob)

	case OpSetTenant:
		m := s.tenantManager()
		if m == nil {
			return errResponse(errors.New("tenant control unavailable: no tenancy manager attached"))
		}
		name, rest, err := readString(payload)
		if err != nil {
			return errResponse(err)
		}
		if len(rest) != 16 {
			return errResponse(errors.New("malformed set-tenant payload"))
		}
		weight := math.Float64frombits(binary.BigEndian.Uint64(rest[:8]))
		bytesPerSec := math.Float64frombits(binary.BigEndian.Uint64(rest[8:16]))
		if math.IsNaN(weight) || math.IsNaN(bytesPerSec) || weight < 0 || bytesPerSec < 0 {
			return errResponse(fmt.Errorf("invalid tenant knobs (weight %v, bytes/s %v)", weight, bytesPerSec))
		}
		if err := m.SetTenant(name, weight, bytesPerSec); err != nil {
			return errResponse(err)
		}
		return okResponse(nil)

	case OpPing:
		return okResponse(nil)

	default:
		return errResponse(fmt.Errorf("unknown opcode %d", opcode))
	}
}

// Close stops accepting, severs live connections, and waits for handler
// goroutines to drain. It does not close the stage.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
