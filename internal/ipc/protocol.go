// Package ipc implements the UNIX-domain-socket client/server PRISMA uses
// to serve multi-process consumers (paper §IV: "because PyTorch uses
// processes instead of threads, we implemented an inter-process
// communication client-server through UNIX Domain Sockets. For each
// spawned process, a PRISMA client instance is created to intercept all
// read invocations and submit them to the server").
//
// Wire format: every message is a frame of
//
//	uint32 length (big endian) | uint8 opcode | uint64 trace (big endian) | payload
//
// where length covers opcode+trace+payload. The trace field propagates the
// sample's span context across the process boundary (zero = unsampled);
// responses echo the request's trace id, doubling as a desync guard.
// Strings and counts inside payloads are uvarint-prefixed. Responses carry
// a status byte (0 = ok, 1 = error-with-message).
//
// Pooled clients on Linux receive samples by descriptor (DESIGN.md §11):
// their first read on a connection asks for the server pool's arena, whose
// read-only descriptor rides that response as SCM_RIGHTS ancillary data.
// Reads that accept leases may then be answered with a lease — arena
// offset, length and lease id — instead of the bytes, and the client
// returns lease ids on its next request. A read request's optional
// trailer carries all three:
//
//	uvarint(count<<2 | accept<<1 | offer) | count × uvarint lease id
package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// Opcodes.
const (
	OpRead         = 1 // request a file read through the stage
	OpPlan         = 2 // submit an epoch filename list
	OpStats        = 3 // fetch stage statistics (control interface)
	OpSetProducers = 4 // control: set t
	OpSetBuffer    = 5 // control: set N
	OpPing         = 6 // liveness probe
	OpSetShards    = 7 // control: set buffer shard count K

	OpSetTraceSampling = 8 // control: set trace head-sampling probability
	OpDecisions        = 9 // fetch the autotuner decision audit log (JSON)

	OpCancelEpoch = 10 // control: cancel a plan epoch by id
	OpEpochs      = 11 // fetch plan-epoch statuses (JSON)

	OpHello     = 12 // establish the connection's tenant identity
	OpTenants   = 13 // fetch per-tenant QoS statistics (JSON)
	OpSetTenant = 14 // control: adjust a tenant's weight / byte budget

	OpBundle = 15 // fetch the one-shot diagnostic bundle (JSON)

	// OpPeerRead is a node-to-node forwarded read in the cluster fabric:
	// the requester does not own the sample and asks the owner to serve it
	// from its buffer. Same response shape and non-resendable discipline as
	// OpRead (the owner's evict-on-read buffer consumes the sample), but
	// dispatched through the server's peer router so owner-side accounting
	// (peer-serve spans, cluster counters) stays separate from local reads.
	OpPeerRead = 16

	// OpRelease returns lease ids without reading: a client that has gone
	// idle sends it so the server does not pin the buffers it released.
	// Its payload is a read request's trailer.
	OpRelease = 17
)

// Response status bytes.
const (
	statusOK  = 0
	statusErr = 1
	// statusOverloaded is the typed load-shed rejection: the request was
	// refused at admission (before executing, so resending is safe) and the
	// payload carries a retry-after hint plus the throttled tenant.
	statusOverloaded = 2
	// statusLease answers a read with a lease instead of the payload:
	// uvarint size, arena offset, length and lease id.
	statusLease = 3
)

// maxLeasedBytes bounds the pool memory one connection's outstanding
// leases may pin (counted by backing buffer). Past it the server answers
// reads inline until the client returns leases.
const maxLeasedBytes = 32 << 20

// MaxFrame bounds a frame payload; larger frames indicate a corrupt or
// hostile peer.
const MaxFrame = 64 << 20

// ErrFrameTooLarge reports an oversized frame.
var ErrFrameTooLarge = errors.New("ipc: frame exceeds maximum size")

// writeFrame sends opcode+trace+payload as one frame.
func writeFrame(w io.Writer, opcode byte, trace uint64, payload []byte) error {
	if len(payload)+9 > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [13]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+9))
	hdr[4] = opcode
	binary.BigEndian.PutUint64(hdr[5:13], trace)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame receives one frame.
func readFrame(r io.Reader) (opcode byte, trace uint64, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	n, err := frameLen(lenBuf[:])
	if err != nil {
		return 0, 0, nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return body[0], binary.BigEndian.Uint64(body[1:9]), body[9:], nil
}

// frameLen validates a frame's length prefix.
func frameLen(prefix []byte) (int, error) {
	n := binary.BigEndian.Uint32(prefix)
	if n < 9 {
		return 0, fmt.Errorf("ipc: short frame (%d bytes)", n)
	}
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// frameReader is a connection's buffered frame decoder: it reads whatever
// the socket holds into one reused buffer, so a small request costs one
// read syscall and no allocation. A returned payload aliases the buffer
// and is valid until the next call.
type frameReader struct {
	buf  []byte
	r, w int // buffered bytes are buf[r:w]
}

func (fr *frameReader) next(src io.Reader) (opcode byte, trace uint64, payload []byte, err error) {
	if err := fr.fill(src, 4); err != nil {
		return 0, 0, nil, err
	}
	n, err := frameLen(fr.buf[fr.r : fr.r+4])
	if err != nil {
		return 0, 0, nil, err
	}
	var body []byte
	if 4+n > len(fr.buf) {
		// Larger than the buffer (a big plan): a one-off body.
		body = make([]byte, n)
		k := copy(body, fr.buf[fr.r+4:fr.w])
		fr.r, fr.w = 0, 0
		if _, err := io.ReadFull(src, body[k:]); err != nil {
			return 0, 0, nil, err
		}
	} else {
		if err := fr.fill(src, 4+n); err != nil {
			return 0, 0, nil, err
		}
		body = fr.buf[fr.r+4 : fr.r+4+n]
		fr.r += 4 + n
	}
	return body[0], binary.BigEndian.Uint64(body[1:9]), body[9:], nil
}

// fill buffers at least need bytes, compacting first when the tail of the
// buffer is too short.
func (fr *frameReader) fill(src io.Reader, need int) error {
	if fr.r == fr.w {
		fr.r, fr.w = 0, 0
	}
	if fr.r+need > len(fr.buf) {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	for fr.w-fr.r < need {
		k, err := src.Read(fr.buf[fr.w:])
		fr.w += k
		if fr.w-fr.r >= need {
			break
		}
		if err != nil {
			if err == io.EOF && fr.w > fr.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Read trailer flags.
const (
	trailerOffer  = 1 << 0 // send the arena descriptor with this response
	trailerAccept = 1 << 1 // this read may be answered by lease
	trailerFlags  = 2      // bits below the release count
)

// appendTrailer encodes a read request's trailer: its flags and the lease
// ids the client returns. Nothing is appended when there is neither.
func appendTrailer(dst []byte, flags uint64, ids []uint64) []byte {
	if flags == 0 && len(ids) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(ids))<<trailerFlags|flags)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, id)
	}
	return dst
}

// parseTrailer decodes a read request's trailer, calling release for each
// returned lease id, and returns its flags. An empty trailer is a request
// from a client that takes no part in leasing.
func parseTrailer(src []byte, release func(id uint64)) (flags uint64, err error) {
	if len(src) == 0 {
		return 0, nil
	}
	h, k := binary.Uvarint(src)
	if k <= 0 {
		return 0, errors.New("ipc: malformed read trailer")
	}
	src = src[k:]
	for n := h >> trailerFlags; n > 0; n-- {
		id, k := binary.Uvarint(src)
		if k <= 0 {
			return 0, errors.New("ipc: malformed lease release list")
		}
		src = src[k:]
		release(id)
	}
	return h & (1<<trailerFlags - 1), nil
}

// lease is a statusLease response's body.
type lease struct {
	size, off, n, id uint64
}

func appendLease(dst []byte, l lease) []byte {
	dst = append(dst, statusLease)
	dst = binary.AppendUvarint(dst, l.size)
	dst = binary.AppendUvarint(dst, l.off)
	dst = binary.AppendUvarint(dst, l.n)
	return binary.AppendUvarint(dst, l.id)
}

// parseLease decodes a statusLease payload (sans status byte), which must
// be consumed exactly.
func parseLease(src []byte) (lease, error) {
	var f [4]uint64
	for i := range f {
		v, k := binary.Uvarint(src)
		if k <= 0 {
			return lease{}, errors.New("ipc: malformed lease response")
		}
		f[i], src = v, src[k:]
	}
	if len(src) != 0 {
		return lease{}, errors.New("ipc: trailing bytes after lease response")
	}
	return lease{size: f[0], off: f[1], n: f[2], id: f[3]}, nil
}

// appendString encodes a uvarint-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readString decodes a uvarint-prefixed string, returning the remainder.
func readString(src []byte) (string, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return "", nil, fmt.Errorf("ipc: malformed string length")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return "", nil, fmt.Errorf("ipc: truncated string (want %d bytes, have %d)", n, len(src))
	}
	return string(src[:n]), src[n:], nil
}

// readStringBytes decodes a uvarint-prefixed string as a sub-slice of src
// (no string allocation — callers intern or copy as needed).
func readStringBytes(src []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("ipc: malformed string length")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return nil, nil, fmt.Errorf("ipc: truncated string (want %d bytes, have %d)", n, len(src))
	}
	return src[:n], src[n:], nil
}

// appendBytes encodes a uvarint-prefixed byte slice.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// readBytes decodes a uvarint-prefixed byte slice, returning the remainder.
func readBytes(src []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("ipc: malformed bytes length")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return nil, nil, fmt.Errorf("ipc: truncated bytes (want %d, have %d)", n, len(src))
	}
	out := make([]byte, n)
	copy(out, src[:n])
	return out, src[n:], nil
}

// readBytesNoCopy is readBytes without the defensive copy: the returned
// slice aliases src. Safe only when src is a freshly read frame body that
// no other decoder will touch — the client's read-response path, where the
// frame buffer was allocated for exactly this response and handing the
// sub-slice to the caller saves one full payload copy per read.
func readBytesNoCopy(src []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("ipc: malformed bytes length")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return nil, nil, fmt.Errorf("ipc: truncated bytes (want %d, have %d)", n, len(src))
	}
	return src[:n:n], src[n:], nil
}

// appendFrameHeader appends the 13-byte frame header for a frame whose body
// (opcode+trace+payload) totals 9+payloadLen bytes.
func appendFrameHeader(dst []byte, opcode byte, trace uint64, payloadLen int) []byte {
	var hdr [13]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(payloadLen+9))
	hdr[4] = opcode
	binary.BigEndian.PutUint64(hdr[5:13], trace)
	return append(dst, hdr[:]...)
}

// okResponse prefixes a payload with the OK status byte.
func okResponse(payload []byte) []byte {
	return append([]byte{statusOK}, payload...)
}

// errResponse encodes an error message response.
func errResponse(err error) []byte {
	return appendString([]byte{statusErr}, err.Error())
}

// overloadResponse encodes a typed load-shed rejection: retry-after in
// nanoseconds, then the throttled tenant's name.
func overloadResponse(oe *tenancy.OverloadError) []byte {
	out := binary.AppendUvarint([]byte{statusOverloaded}, uint64(oe.RetryAfter))
	return appendString(out, oe.Tenant)
}

// parseOverload decodes a statusOverloaded payload (sans status byte).
func parseOverload(payload []byte) (*tenancy.OverloadError, error) {
	retry, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("ipc: malformed overload response")
	}
	tenant, _, err := readString(payload[k:])
	if err != nil {
		return nil, fmt.Errorf("ipc: malformed overload response: %v", err)
	}
	return &tenancy.OverloadError{Tenant: tenant, RetryAfter: time.Duration(retry)}, nil
}

// parseResponse splits status from payload, converting remote errors.
func parseResponse(payload []byte) ([]byte, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("ipc: empty response")
	}
	switch payload[0] {
	case statusOK:
		return payload[1:], nil
	case statusErr:
		msg, _, err := readString(payload[1:])
		if err != nil {
			return nil, fmt.Errorf("ipc: malformed error response: %v", err)
		}
		return nil, &RemoteError{Msg: msg}
	case statusOverloaded:
		oe, err := parseOverload(payload[1:])
		if err != nil {
			return nil, err
		}
		return nil, oe
	default:
		return nil, fmt.Errorf("ipc: unknown response status %d", payload[0])
	}
}

// RemoteError is an error reported by the PRISMA server.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "ipc: remote: " + e.Msg }
