package ipc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// ErrConnBroken reports a round trip that failed at the transport layer:
// after a partial read or write the request/response stream may be
// desynchronized, so the connection is poisoned and redialed rather than
// reused. Callers can match it with errors.Is.
var ErrConnBroken = errors.New("ipc: connection broken")

// DialConfig tunes client-side resilience. The zero value preserves the
// historical behaviour — no deadlines, no in-call retries — except that a
// poisoned connection is always redialed on the next call instead of
// deadlocking on a desynced stream.
type DialConfig struct {
	// DialTimeout bounds the initial dial and every redial (0 = none).
	DialTimeout time.Duration
	// WriteTimeout bounds sending one request frame (0 = none).
	WriteTimeout time.Duration
	// ReadTimeout bounds waiting for one response frame (0 = none). A
	// timeout poisons the connection: the late response would otherwise be
	// mistaken for the answer to the next request.
	ReadTimeout time.Duration
	// MaxReconnects is the number of automatic redial-and-retry rounds a
	// resendable round trip may use after a transport failure (0 = fail
	// immediately). Non-resendable requests — Read (evict-on-read consumes
	// the sample, so a duplicate send could consume it twice) and
	// SubmitPlan (appends plan state) — never retry in-call; they only
	// redial before the first send.
	MaxReconnects int
	// ReconnectBackoff is the sleep before the first redial, doubled each
	// further redial within one call (default 10ms when redialing).
	ReconnectBackoff time.Duration
	// OverloadRetries is how many times one Read waits out a server-issued
	// retry-after hint and resends after a typed overload rejection
	// (0 = surface the OverloadError to the caller immediately). Sheds
	// happen at admission, before the read executes, so the resend is safe
	// even though reads are otherwise non-resendable.
	OverloadRetries int
}

// Client is one consumer process's connection to the PRISMA server. A
// client issues one request at a time (guarded by a mutex); spawn one
// client per worker process, as the prototype does. After a transport
// error the connection is poisoned and transparently re-established on the
// next call (with bounded in-call retries for idempotent requests).
type Client struct {
	path string
	cfg  DialConfig

	mu         sync.Mutex
	conn       net.Conn
	lc         *leaseConn // lease state of conn
	broken     bool
	closed     bool
	reconnects int64
	tracer     *obs.Tracer   // nil-safe; client-side spans of intercepted reads
	pool       *mempool.Pool // non-nil: Read returns pooled Data (caller releases)
	req        []byte        // request-payload scratch for the pooled read path
	wire       []byte        // outgoing-frame scratch (header + payload, one Write)
	resp       []byte        // response scratch: frame header and head in one read

	// Lease ids the caller released, returned with the next pooled read
	// or, once the client has gone idle, by an OpRelease. relMu nests
	// inside mu; Release takes only relMu.
	relMu      sync.Mutex
	pending    []uint64
	drains     uint64      // times a request carried pending away
	flushArmed bool        // flushTimer is set
	armedAt    uint64      // drains when flushTimer was set
	flushTimer *time.Timer // runs flushReleases

	// Hello credentials, replayed after every redial so the connection's
	// tenant identity (and cluster role) survives reconnects.
	helloName   string
	helloSecret string
	helloRole   string
	helloSent   bool
}

// Dial connects to the PRISMA server socket with the zero DialConfig.
func Dial(socketPath string) (*Client, error) {
	return DialWithConfig(socketPath, DialConfig{})
}

// DialWithConfig connects with explicit resilience settings.
func DialWithConfig(socketPath string, cfg DialConfig) (*Client, error) {
	conn, err := dialConn(socketPath, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("ipc: dial %s: %w", socketPath, err)
	}
	c := &Client{path: socketPath, cfg: cfg}
	c.setConnLocked(conn)
	return c, nil
}

// setConnLocked makes conn the live connection. Caller holds c.mu (or owns
// c exclusively).
func (c *Client) setConnLocked(conn net.Conn) {
	c.conn = conn
	c.lc = &leaseConn{c: c, conn: conn}
}

func dialConn(path string, timeout time.Duration) (net.Conn, error) {
	if timeout > 0 {
		return net.DialTimeout("unix", path, timeout)
	}
	return net.Dial("unix", path)
}

// SetTracer attaches a tracer so the client head-samples its reads and
// records the client-observed round-trip span; the sampled trace id rides
// the frame header to the server, which continues the same trace.
func (c *Client) SetTracer(t *obs.Tracer) {
	c.mu.Lock()
	c.tracer = t
	c.mu.Unlock()
}

// SetBufferPool switches Read to pooled responses, returned with Data.Ref
// set — the caller owns that reference and must Release it when done with
// the bytes. On Linux a pooled client takes samples by lease: its first
// read on a connection asks for the server pool's arena, which it maps
// read-only, and a leased sample's bytes are the server's own buffer, held
// for the client until the Ref is released. Other payloads are read off
// the socket straight into a buffer of p. Pass nil to revert to plain
// allocated responses.
func (c *Client) SetBufferPool(p *mempool.Pool) {
	c.mu.Lock()
	c.pool = p
	c.mu.Unlock()
}

// Reconnects reports how many times the client redialed the server.
func (c *Client) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Broken reports whether the connection is currently poisoned (it will be
// redialed on the next call).
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// roundTrip sends one request frame and awaits the matching response.
// Resendable requests may be resent on a fresh connection after transport
// failures, up to MaxReconnects times. Non-resendable requests are sent at
// most once per call: after a transport failure mid-exchange the server may
// or may not have executed them, so a silent resend could execute the
// operation twice (for OpRead that means consuming — and discarding — a
// second sample from the evict-on-read buffer). A poisoned connection is
// still redialed before the single send, which is always safe.
func (c *Client) roundTrip(opcode byte, payload []byte, resendable bool) ([]byte, error) {
	return c.roundTripTrace(opcode, 0, payload, resendable)
}

// roundTripTrace is roundTrip carrying an explicit span context in the
// frame header (zero = unsampled).
func (c *Client) roundTripTrace(opcode byte, trace uint64, payload []byte, resendable bool) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := 1
	if resendable {
		attempts += c.cfg.MaxReconnects
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if c.closed {
			return nil, net.ErrClosed
		}
		if c.broken {
			if err := c.redialLocked(attempt); err != nil {
				lastErr = err
				continue
			}
		}
		resp, err := c.exchangeLocked(opcode, trace, payload)
		if err == nil {
			return resp, nil
		}
		if isCleanError(err) {
			// A server-reported error (including a typed load shed): the
			// stream is intact.
			return nil, err
		}
		// Transport or framing failure: the stream state is unknown.
		c.poisonLocked()
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %v", ErrConnBroken, lastErr)
}

// isCleanError reports an error the server sent as a well-framed response:
// the stream is synchronized and the connection stays usable. Overload
// rejections are clean by design — shedding must not cost the client its
// connection.
func isCleanError(err error) bool {
	var remote *RemoteError
	if errors.As(err, &remote) {
		return true
	}
	var oe *tenancy.OverloadError
	return errors.As(err, &oe)
}

// exchangeLocked performs one framed request/response on the live
// connection, applying the configured deadlines. Caller holds c.mu.
func (c *Client) exchangeLocked(opcode byte, trace uint64, payload []byte) ([]byte, error) {
	if c.cfg.WriteTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	if err := writeFrame(c.conn, opcode, trace, payload); err != nil {
		return nil, err
	}
	if c.cfg.ReadTimeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	gotOp, gotTrace, resp, err := readFrame(c.conn)
	if err != nil {
		return nil, err
	}
	if gotOp != opcode {
		return nil, fmt.Errorf("ipc: response opcode %d for request %d", gotOp, opcode)
	}
	if gotTrace != trace {
		return nil, fmt.Errorf("ipc: response trace %#x for request %#x", gotTrace, trace)
	}
	return parseResponse(resp)
}

// poisonLocked marks the connection unusable and retires it: it is severed
// at once unless the caller still holds leases on it. Caller holds c.mu.
func (c *Client) poisonLocked() {
	c.broken = true
	if c.lc != nil {
		c.lc.retire(false)
	}
}

// redialLocked re-establishes the connection, backing off before every
// retry round after the first. Caller holds c.mu.
func (c *Client) redialLocked(attempt int) error {
	if attempt > 0 {
		backoff := c.cfg.ReconnectBackoff
		if backoff <= 0 {
			backoff = 10 * time.Millisecond
		}
		time.Sleep(backoff << (attempt - 1))
	}
	conn, err := dialConn(c.path, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("ipc: reconnect %s: %w", c.path, err)
	}
	c.setConnLocked(conn)
	c.broken = false
	c.reconnects++
	// A fresh connection is anonymous: replay the hello so the tenant
	// identity — and the budgets attached to it — survive the reconnect.
	if c.helloSent {
		if _, err := c.exchangeLocked(OpHello, 0, helloPayload(c.helloName, c.helloSecret, c.helloRole)); err != nil {
			c.poisonLocked()
			return fmt.Errorf("ipc: hello replay on reconnect: %w", err)
		}
	}
	return nil
}

// helloPayload encodes an OpHello request. The role rides as an optional
// third string: pre-cluster servers decode the first two and ignore the
// rest, so sending it is always safe.
func helloPayload(name, secret, role string) []byte {
	out := appendString(appendString(nil, name), secret)
	if role != "" {
		out = appendString(out, role)
	}
	return out
}

// Hello establishes the connection's tenant identity and returns the
// server-resolved tenant name (the default tenant for an empty name). The
// credentials are remembered and replayed after every redial. Resendable:
// hello is idempotent.
func (c *Client) Hello(name, secret string) (string, error) {
	return c.HelloRole(name, secret, "")
}

// HelloRole is Hello additionally declaring the connection's role
// ("worker" for ordinary consumers, "peer" for a cluster node's
// forwarding connection). The role is replayed with the credentials on
// every redial.
func (c *Client) HelloRole(name, secret, role string) (string, error) {
	resp, err := c.roundTrip(OpHello, helloPayload(name, secret, role), true)
	if err != nil {
		return "", err
	}
	resolved, _, err := readString(resp)
	if err != nil {
		return "", fmt.Errorf("ipc: malformed hello response: %v", err)
	}
	c.mu.Lock()
	c.helloName, c.helloSecret, c.helloRole, c.helloSent = name, secret, role, true
	c.mu.Unlock()
	return resolved, nil
}

// Read requests a file through the server's stage — the intercepted read
// path for multi-process consumers. A read consumes its sample from the
// evict-on-read buffer, so it is not resendable: after ErrConnBroken the
// caller must decide whether to reissue (the sample may or may not have
// been consumed server-side).
func (c *Client) Read(name string) (storage.Data, error) {
	c.mu.Lock()
	tracer := c.tracer
	pooled := c.pool != nil
	c.mu.Unlock()
	ctx := tracer.StartTrace()
	start := tracer.Now()
	var (
		data storage.Data
		err  error
	)
	for attempt := 0; ; attempt++ {
		if pooled {
			data, err = c.readPooled(name, ctx.Trace)
		} else {
			data, err = c.readAlloc(name, ctx.Trace)
		}
		// A typed load shed happened before the read executed, so waiting
		// out the server's retry-after hint and resending is safe — the one
		// exception to the read path's never-resend rule. The shed check
		// lives behind the error branch so the success path never pays the
		// errors.As target's heap escape.
		if err == nil {
			break
		}
		var oe *tenancy.OverloadError
		if !errors.As(err, &oe) || attempt >= c.cfg.OverloadRetries {
			break
		}
		time.Sleep(clampRetryAfter(oe.RetryAfter))
	}
	if ctx.Sampled {
		sp := obs.Span{
			Trace:   ctx.Trace,
			Stage:   obs.StageIPC,
			Name:    name,
			At:      start,
			Latency: tracer.Now() - start,
		}
		if err != nil {
			sp.Error = err.Error()
		}
		tracer.Record(sp)
	}
	return data, err
}

// readAlloc is the plain read path: the response frame is decoded from a
// per-call buffer. The payload sub-slice is handed to the caller without a
// defensive copy — the frame buffer was allocated for exactly this
// response, so aliasing it is safe and saves one full payload copy.
func (c *Client) readAlloc(name string, trace uint64) (storage.Data, error) {
	resp, err := c.roundTripTrace(OpRead, trace, appendString(nil, name), false)
	if err != nil {
		return storage.Data{}, err
	}
	return decodeReadResponse(name, resp)
}

// decodeReadResponse parses an OpRead/OpPeerRead OK payload (size +
// uvarint-prefixed bytes) into a Data handed to the caller without a
// defensive copy.
func decodeReadResponse(name string, resp []byte) (storage.Data, error) {
	size, k := binary.Uvarint(resp)
	if k <= 0 {
		return storage.Data{}, fmt.Errorf("ipc: malformed read response")
	}
	bytes, _, err := readBytesNoCopy(resp[k:])
	if err != nil {
		return storage.Data{}, err
	}
	if len(bytes) == 0 {
		bytes = nil
	}
	return storage.Data{Name: name, Size: int64(size), Bytes: bytes}, nil
}

// PeerRead requests a sample from this server's buffer on behalf of
// another cluster node (OpPeerRead): the requester does not own the sample
// and the owner serves it — ideally a buffer hit, thanks to clairvoyant
// placement. Like Read it consumes the sample from the owner's
// evict-on-read buffer, so it is not resendable; the caller (the fabric)
// fails over to the slow store on ErrConnBroken rather than resending. The
// sampled trace id (if any) rides the frame so owner-side peer-serve spans
// join the requester's trace.
func (c *Client) PeerRead(name string) (storage.Data, error) {
	c.mu.Lock()
	tracer := c.tracer
	c.mu.Unlock()
	ctx := tracer.StartTrace()
	resp, err := c.roundTripTrace(OpPeerRead, ctx.Trace, appendString(nil, name), false)
	if err != nil {
		return storage.Data{}, err
	}
	return decodeReadResponse(name, resp)
}

// readPooled performs one read round trip, landing the payload directly in
// a pool buffer: frame header and response head are parsed from small
// stack buffers, then the payload bytes are received straight into the
// lease returned to the caller. Mirrors roundTripTrace's non-resendable
// discipline: redial a poisoned connection before the send, never resend
// after it, and poison on any transport or framing failure.
func (c *Client) readPooled(name string, trace uint64) (storage.Data, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return storage.Data{}, net.ErrClosed
	}
	if c.broken {
		if err := c.redialLocked(0); err != nil {
			return storage.Data{}, fmt.Errorf("%w: %v", ErrConnBroken, err)
		}
	}
	data, err := c.exchangePooledLocked(name, trace)
	if err != nil {
		if isCleanError(err) {
			return storage.Data{}, err // well-framed server response: stream intact
		}
		c.poisonLocked()
		return storage.Data{}, fmt.Errorf("%w: %v", ErrConnBroken, err)
	}
	return data, nil
}

// clampRetryAfter bounds a server-issued retry hint to something sane even
// against a buggy or hostile server.
func clampRetryAfter(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Millisecond
	}
	if d > 10*time.Second {
		return 10 * time.Second
	}
	return d
}

// respScratch holds a response's frame header and head: a lease response
// whole, or an inline response's head and its first payload bytes.
const respScratch = 64

// exchangePooledLocked is the pooled wire exchange: one frame out, and
// usually one read for the response's header and head. A lease response
// ends there; an inline payload is then received straight into a pool
// buffer. Caller holds c.mu.
func (c *Client) exchangePooledLocked(name string, trace uint64) (storage.Data, error) {
	lc := c.lc
	var flags uint64
	if arenaSupported {
		flags = trailerAccept
		if !lc.offered {
			flags |= trailerOffer
		}
	}
	c.req = appendString(c.req[:0], name)
	c.req = c.appendPending(c.req, flags)
	if c.cfg.WriteTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	// The request is tiny (one name and a few lease ids), so header and
	// payload are assembled in one reused scratch and sent with a single
	// Write — no per-call frame buffer (writeFrame's stack header escapes
	// through conn.Write).
	if len(c.req)+9 > MaxFrame {
		return storage.Data{}, ErrFrameTooLarge
	}
	c.wire = appendFrameHeader(c.wire[:0], OpRead, trace, len(c.req))
	c.wire = append(c.wire, c.req...)
	if _, err := c.conn.Write(c.wire); err != nil {
		return storage.Data{}, err
	}
	if c.cfg.ReadTimeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	// Reused response scratch: a stack array would escape to the heap
	// through the conn.Read interface call, costing an allocation per read.
	if cap(c.resp) < respScratch {
		c.resp = make([]byte, respScratch)
	}
	buf := c.resp[:respScratch]
	var (
		have int
		err  error
	)
	if flags&trailerOffer != 0 {
		// The arena descriptor, if the server has one, rides this response.
		var fd int
		lc.offered = true
		have, fd, err = readWithFD(c.conn, buf)
		if fd >= 0 {
			if m, merr := mempool.MapArena(fd); merr == nil {
				lc.arena = m
			}
		}
	} else {
		have, err = c.conn.Read(buf)
	}
	if have < 13 {
		if err == nil {
			var k int
			k, err = io.ReadAtLeast(c.conn, buf[have:], 13-have)
			have += k
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return storage.Data{}, err
		}
	}
	n, err := frameLen(buf[:4])
	if err != nil {
		return storage.Data{}, err
	}
	if op := buf[4]; op != OpRead {
		return storage.Data{}, fmt.Errorf("ipc: response opcode %d for request %d", op, OpRead)
	}
	if got := binary.BigEndian.Uint64(buf[5:13]); got != trace {
		return storage.Data{}, fmt.Errorf("ipc: response trace %#x for request %#x", got, trace)
	}
	// The part of this frame that fits the scratch: the whole of a lease
	// or error response, the head and first payload bytes of an inline one.
	payloadLen := n - 9
	end := 13 + payloadLen
	if end > len(buf) {
		end = len(buf)
	}
	if have > end {
		return storage.Data{}, fmt.Errorf("ipc: %d bytes received past a %d-byte response", have-end, 4+n)
	}
	if have < end {
		if _, err := io.ReadFull(c.conn, buf[have:end]); err != nil {
			return storage.Data{}, err
		}
	}
	pre := buf[13:end]
	if len(pre) < 1 {
		return storage.Data{}, fmt.Errorf("ipc: empty response")
	}
	switch pre[0] {
	case statusOK:
	case statusLease:
		l, err := parseLease(pre[1:])
		if err != nil {
			return storage.Data{}, err
		}
		return c.leasedLocked(lc, name, l)
	case statusErr, statusOverloaded:
		// Error paths (cold): drain the rest of the frame and decode;
		// the stream stays synchronized either way.
		rest := make([]byte, payloadLen-len(pre))
		if _, err := io.ReadFull(c.conn, rest); err != nil {
			return storage.Data{}, err
		}
		full := append(append([]byte(nil), pre[1:]...), rest...)
		if pre[0] == statusOverloaded {
			oe, err := parseOverload(full)
			if err != nil {
				return storage.Data{}, err
			}
			return storage.Data{}, oe
		}
		msg, _, err := readString(full)
		if err != nil {
			return storage.Data{}, fmt.Errorf("ipc: malformed error response: %v", err)
		}
		return storage.Data{}, &RemoteError{Msg: msg}
	default:
		return storage.Data{}, fmt.Errorf("ipc: unknown response status %d", pre[0])
	}
	size, k1 := binary.Uvarint(pre[1:])
	if k1 <= 0 {
		return storage.Data{}, fmt.Errorf("ipc: malformed read response")
	}
	blen, k2 := binary.Uvarint(pre[1+k1:])
	if k2 <= 0 {
		return storage.Data{}, fmt.Errorf("ipc: malformed bytes length")
	}
	consumed := 1 + k1 + k2
	if blen > uint64(payloadLen) || consumed+int(blen) != payloadLen {
		return storage.Data{}, fmt.Errorf("ipc: read response length mismatch (head %d + payload %d != frame %d)", consumed, blen, payloadLen)
	}
	if blen == 0 {
		return storage.Data{Name: name, Size: int64(size)}, nil
	}
	ref := c.pool.Get(int(blen))
	dst := ref.Bytes()
	copied := copy(dst, pre[consumed:])
	if _, err := io.ReadFull(c.conn, dst[copied:]); err != nil {
		ref.Release()
		return storage.Data{}, err
	}
	return storage.Data{Name: name, Size: int64(size), Bytes: dst, Ref: ref}, nil
}

// leasedLocked turns a lease response into Data whose bytes are the
// server's arena slot and whose Ref, borrowed from the client pool, returns
// the lease id when released. Caller holds c.mu.
func (c *Client) leasedLocked(lc *leaseConn, name string, l lease) (storage.Data, error) {
	if lc.arena == nil {
		return storage.Data{}, errors.New("ipc: lease response on a connection without an arena")
	}
	b, err := lc.arena.Slice(int64(l.off), int64(l.n))
	if err != nil {
		return storage.Data{}, err
	}
	c.relMu.Lock()
	lc.live++
	c.relMu.Unlock()
	return storage.Data{Name: name, Size: int64(l.size), Bytes: b, Ref: c.pool.Borrow(b, lc, l.id)}, nil
}

// releaseFlushDelay is how long released lease ids may wait for a request
// to carry them before the client sends them on their own.
const releaseFlushDelay = 5 * time.Millisecond

// leaseConn is the lease state of one connection: the server's arena as
// mapped here, and how many of the connection's leases the caller holds.
// The server recycles every lease of a connection when it closes, so a
// connection the client stops using stays open until the caller has
// released its last lease on it.
type leaseConn struct {
	c       *Client
	conn    net.Conn
	arena   *mempool.Mapping // nil until the server sends its arena
	offered bool             // the arena was asked for (guarded by c.mu)

	// Guarded by c.relMu.
	live     int  // leases handed to the caller and not yet released
	retired  bool // the client no longer uses the connection
	finished bool // finish has been called
}

// Return is the mempool.Lender hook: the caller released a leased sample.
// The id rides the next request, or an idle flush.
func (lc *leaseConn) Return(id uint64) {
	c := lc.c
	c.relMu.Lock()
	lc.live--
	if lc.retired {
		done := lc.doneLocked()
		c.relMu.Unlock()
		if done {
			lc.finish()
		}
		return
	}
	c.pending = append(c.pending, id)
	if !c.flushArmed {
		c.flushArmed, c.armedAt = true, c.drains
		if c.flushTimer == nil {
			c.flushTimer = time.AfterFunc(releaseFlushDelay, c.flushReleases)
		} else {
			c.flushTimer.Reset(releaseFlushDelay)
		}
	}
	c.relMu.Unlock()
}

// retire ends the client's use of the connection. It closes when no lease
// is out, at once with closeNow, and otherwise once the caller releases
// the last one.
func (lc *leaseConn) retire(closeNow bool) {
	c := lc.c
	c.relMu.Lock()
	lc.retired = true
	c.pending = c.pending[:0] // this connection's; its close returns them
	done := lc.doneLocked()
	c.relMu.Unlock()
	if done {
		lc.finish()
	} else if closeNow {
		lc.conn.Close()
	}
}

// doneLocked reports, once, that the client is done with the connection
// and no lease is out: the caller is to finish it. Caller holds c.relMu.
func (lc *leaseConn) doneLocked() bool {
	if !lc.retired || lc.live > 0 || lc.finished {
		return false
	}
	lc.finished = true
	return true
}

// finish closes the connection and unmaps the arena.
func (lc *leaseConn) finish() {
	lc.conn.Close()
	if lc.arena != nil {
		lc.arena.Close()
		lc.arena = nil
	}
}

// appendPending appends a read trailer with flags and the released lease
// ids, which it takes.
func (c *Client) appendPending(dst []byte, flags uint64) []byte {
	c.relMu.Lock()
	dst = appendTrailer(dst, flags, c.pending)
	if len(c.pending) > 0 {
		c.pending = c.pending[:0]
		c.drains++
	}
	c.relMu.Unlock()
	return dst
}

// flushReleases returns released lease ids no request has carried for a
// whole releaseFlushDelay, so an idle client does not keep the server
// pinning buffers it is done with.
func (c *Client) flushReleases() {
	c.relMu.Lock()
	c.flushArmed = false
	if len(c.pending) == 0 {
		c.relMu.Unlock()
		return
	}
	if c.drains != c.armedAt {
		// Requests are flowing; the next one carries the ids.
		c.flushArmed, c.armedAt = true, c.drains
		c.flushTimer.Reset(releaseFlushDelay)
		c.relMu.Unlock()
		return
	}
	c.relMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.broken {
		return
	}
	payload := c.appendPending(nil, 0)
	if len(payload) == 0 {
		return
	}
	if _, err := c.exchangeLocked(OpRelease, 0, payload); err != nil && !isCleanError(err) {
		c.poisonLocked()
	}
}

// SubmitPlan forwards an epoch's shuffled filename list. A plan mutates
// stage state, so it is never retried in-call: on a transport failure the
// caller decides whether resubmitting is safe.
func (c *Client) SubmitPlan(names []string) error {
	_, err := c.SubmitEpoch(names)
	return err
}

// SubmitEpoch is SubmitPlan returning the issued epoch id and how many
// entries the server enqueued. Non-resendable like SubmitPlan: a resend
// would register a second epoch.
func (c *Client) SubmitEpoch(names []string) (core.PlanResult, error) {
	payload := binary.AppendUvarint(nil, uint64(len(names)))
	for _, n := range names {
		payload = appendString(payload, n)
	}
	resp, err := c.roundTrip(OpPlan, payload, false)
	if err != nil {
		return core.PlanResult{}, err
	}
	id, k1 := binary.Uvarint(resp)
	if k1 <= 0 {
		return core.PlanResult{}, fmt.Errorf("ipc: malformed plan response")
	}
	enq, k2 := binary.Uvarint(resp[k1:])
	if k2 <= 0 {
		return core.PlanResult{}, fmt.Errorf("ipc: malformed plan response")
	}
	return core.PlanResult{Epoch: core.EpochID(id), Enqueued: int(enq)}, nil
}

// CancelEpoch cancels a plan epoch remotely, reporting how many plan
// entries the server removed. Resendable: cancellation is idempotent.
func (c *Client) CancelEpoch(id core.EpochID) (int, error) {
	resp, err := c.roundTrip(OpCancelEpoch, binary.AppendUvarint(nil, uint64(id)), true)
	if err != nil {
		return 0, err
	}
	removed, k := binary.Uvarint(resp)
	if k <= 0 {
		return 0, fmt.Errorf("ipc: malformed cancel response")
	}
	return int(removed), nil
}

// Epochs fetches the server's retained plan-epoch statuses.
func (c *Client) Epochs() ([]core.EpochStatus, error) {
	resp, err := c.roundTrip(OpEpochs, nil, true)
	if err != nil {
		return nil, err
	}
	var out []core.EpochStatus
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, fmt.Errorf("ipc: decode epochs: %w", err)
	}
	return out, nil
}

// Stats fetches the stage's monitoring snapshot.
func (c *Client) Stats() (core.StageStats, error) {
	resp, err := c.roundTrip(OpStats, nil, true)
	if err != nil {
		return core.StageStats{}, err
	}
	var stats core.StageStats
	if err := json.Unmarshal(resp, &stats); err != nil {
		return core.StageStats{}, fmt.Errorf("ipc: decode stats: %w", err)
	}
	return stats, nil
}

// SetProducers adjusts the stage's t remotely (control path).
func (c *Client) SetProducers(n int) error {
	if n < 0 {
		n = 0
	}
	_, err := c.roundTrip(OpSetProducers, binary.AppendUvarint(nil, uint64(n)), true)
	return err
}

// SetBufferCapacity adjusts the stage's N remotely (control path).
func (c *Client) SetBufferCapacity(n int) error {
	if n < 1 {
		n = 1
	}
	_, err := c.roundTrip(OpSetBuffer, binary.AppendUvarint(nil, uint64(n)), true)
	return err
}

// SetBufferShards adjusts the buffer's shard count K remotely (control
// path). Resendable: the knob is an absolute value.
func (c *Client) SetBufferShards(k int) error {
	if k < 1 {
		k = 1
	}
	_, err := c.roundTrip(OpSetShards, binary.AppendUvarint(nil, uint64(k)), true)
	return err
}

// SetTraceSampling adjusts the server tracer's head-sampling probability
// remotely (control path). Resendable: the knob is an absolute value.
func (c *Client) SetTraceSampling(p float64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(p))
	_, err := c.roundTrip(OpSetTraceSampling, buf[:], true)
	return err
}

// Decisions fetches the server's autotuner decision audit log as raw JSON
// (an array of control.DecisionRecord).
func (c *Client) Decisions() ([]byte, error) {
	return c.roundTrip(OpDecisions, nil, true)
}

// Bundle fetches the server's one-shot diagnostic bundle as raw JSON
// (an httpadmin.Bundle document).
func (c *Client) Bundle() ([]byte, error) {
	return c.roundTrip(OpBundle, nil, true)
}

// Tenants fetches the server's per-tenant QoS snapshot.
func (c *Client) Tenants() (tenancy.Snapshot, error) {
	resp, err := c.roundTrip(OpTenants, nil, true)
	if err != nil {
		return tenancy.Snapshot{}, err
	}
	var snap tenancy.Snapshot
	if err := json.Unmarshal(resp, &snap); err != nil {
		return tenancy.Snapshot{}, fmt.Errorf("ipc: decode tenants: %w", err)
	}
	return snap, nil
}

// SetTenant adjusts a tenant's weight and/or byte budget remotely (zero
// leaves the respective knob unchanged). Resendable: the knobs are
// absolute values.
func (c *Client) SetTenant(name string, weight, bytesPerSecond float64) error {
	payload := appendString(nil, name)
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], math.Float64bits(weight))
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(bytesPerSecond))
	payload = append(payload, buf[:]...)
	_, err := c.roundTrip(OpSetTenant, payload, true)
	return err
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(OpPing, nil, true)
	return err
}

// Close severs the connection. The server then recycles the buffers of any
// leased samples the caller has not released, so their bytes are no longer
// valid: release samples before closing their client. (A connection the
// client gave up on earlier closes once its last lease is released.)
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.relMu.Lock()
	if c.flushTimer != nil {
		c.flushTimer.Stop()
	}
	c.relMu.Unlock()
	err := c.conn.Close()
	c.lc.retire(true)
	return err
}
