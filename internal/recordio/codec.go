// Transparent per-sample compression for packed shards and the fast tier.
// The codec is a small byte-oriented LZ77 in the snappy family. The
// encoder probes a hash table of 4-byte windows, skipping ahead faster
// the longer it goes without a match (so incompressible stretches cost
// little), and extends matches a word at a time. The decoder writes
// straight into a caller-provided buffer of the known uncompressed size
// and allocates nothing — unlike stdlib flate, whose dynamic-Huffman
// table construction allocates per block and would break the hot path's
// 0 allocs/op gate — which is what lets compressed records decode in
// place into pooled buffers.
//
// Compressed stream format (raw size is carried by the index, not the
// stream):
//
//	literal run: 0x00 | uvarint(n) | n bytes
//	back copy:   0x01 | uvarint(offset) | uvarint(length)
//
// A copy references the last `offset` bytes of the output produced so
// far; overlapping copies (offset < length) replicate runs, RLE-style.
// The format has not changed since the first, greedy encoder: streams
// from either encoder decode with the same decoder.
package recordio

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Codec identifies a record payload's encoding in the index.
type Codec uint8

const (
	// CodecNone marks a plain payload stored verbatim.
	CodecNone Codec = 0
	// CodecLZ marks a payload compressed with the package's LZ codec.
	CodecLZ Codec = 1
)

func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecLZ:
		return "lz"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

const (
	lzTagLiteral = 0x00
	lzTagCopy    = 0x01

	lzMinMatch  = 4
	lzTableBits = 13
)

// lzHash maps a 4-byte window to a table slot (Knuth multiplicative).
func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzTableBits)
}

// appendLiterals emits src as one literal run (no-op when empty).
func appendLiterals(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	dst = append(dst, lzTagLiteral)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	return append(dst, src...)
}

// matchLen reports how many leading bytes a and b share; a must be at
// least as long as b. It compares a word at a time.
func matchLen(a, b []byte) int {
	a = a[:len(b)]
	n := 0
	for len(b)-n >= 8 {
		if x := binary.LittleEndian.Uint64(b[n:]) ^ binary.LittleEndian.Uint64(a[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// encodeScratch holds reusable encode buffers, so Compress's only
// allocation is its exact-size result.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// Compress encodes src with the LZ codec. It returns (compressed, true)
// only when the encoding is strictly smaller than src; incompressible
// payloads return (nil, false) and should be stored as CodecNone —
// transparent compression must never inflate a shard. The result is an
// exact-size slice the caller owns (cap == len), so a held encoding
// occupies only its own length.
func Compress(src []byte) ([]byte, bool) {
	if len(src) < lzMinMatch+2 {
		return nil, false
	}
	scratch := encodeScratch.Get().(*[]byte)
	defer encodeScratch.Put(scratch)
	enc := encode((*scratch)[:0], src)
	*scratch = enc
	if len(enc) >= len(src) {
		return nil, false
	}
	return append([]byte(nil), enc...)[:len(enc):len(enc)], true
}

// encode appends src's LZ encoding to dst. The table holds the position
// of the latest window with each hash; a zeroed table therefore points
// every hash at position 0, which is a real candidate like any other, so
// the probe needs no empty-slot check and the table no fill. Probing
// starts at 1 (position 0 cannot match). After every miss the probe
// advances skip>>5 bytes and skip grows by that step, so a stretch with
// no matches is crossed in O(sqrt) probes; a match resets the pace.
func encode(dst, src []byte) []byte {
	var table [1 << lzTableBits]uint32
	litStart, i, skip := 0, 1, 32
	for i+lzMinMatch <= len(src) {
		cur := binary.LittleEndian.Uint32(src[i:])
		h := lzHash(cur)
		cand := int(table[h])
		table[h] = uint32(i)
		if binary.LittleEndian.Uint32(src[cand:]) != cur {
			step := skip >> 5
			skip += step
			i += step
			continue
		}
		// A skipping probe may land past a match's true start: extend it
		// back over bytes still pending as literals.
		for cand > 0 && i > litStart && src[cand-1] == src[i-1] {
			cand--
			i--
		}
		n := matchLen(src[cand:], src[i:])
		dst = appendLiterals(dst, src[litStart:i])
		dst = append(dst, lzTagCopy)
		dst = binary.AppendUvarint(dst, uint64(i-cand))
		dst = binary.AppendUvarint(dst, uint64(n))
		i += n
		litStart = i
		skip = 32
	}
	return appendLiterals(dst, src[litStart:])
}

// DecompressInto decodes src into dst, which must be exactly the
// record's uncompressed size (from the index entry). It performs no
// allocations: both buffers are caller-owned, so pooled buffers flow
// through untouched. Any framing violation — including a decoded size
// that does not fill dst exactly — reports ErrCorrupt.
func DecompressInto(dst, src []byte) error {
	di, si := 0, 0
	for si < len(src) {
		tag := src[si]
		si++
		switch tag {
		case lzTagLiteral:
			n, k := binary.Uvarint(src[si:])
			if k <= 0 {
				return fmt.Errorf("%w: bad literal length", ErrCorrupt)
			}
			si += k
			if n == 0 || n > uint64(len(src)-si) || n > uint64(len(dst)-di) {
				return fmt.Errorf("%w: literal run overruns buffer", ErrCorrupt)
			}
			copy(dst[di:], src[si:si+int(n)])
			si += int(n)
			di += int(n)
		case lzTagCopy:
			off, k := binary.Uvarint(src[si:])
			if k <= 0 {
				return fmt.Errorf("%w: bad copy offset", ErrCorrupt)
			}
			si += k
			n, k := binary.Uvarint(src[si:])
			if k <= 0 {
				return fmt.Errorf("%w: bad copy length", ErrCorrupt)
			}
			si += k
			if off == 0 || off > uint64(di) || n == 0 || n > uint64(len(dst)-di) {
				return fmt.Errorf("%w: copy out of range", ErrCorrupt)
			}
			// An overlapping copy (offset < length) repeats its last
			// `offset` bytes; each pass copies everything written since
			// from, doubling the span until the run is filled.
			from, end := di-int(off), di+int(n)
			for di < end {
				di += copy(dst[di:end], dst[from:di])
			}
		default:
			return fmt.Errorf("%w: unknown tag %#02x", ErrCorrupt, tag)
		}
	}
	if di != len(dst) {
		return fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, di, len(dst))
	}
	return nil
}

// ContentKey is a payload's dedup identity: packing two samples with the
// same key stores the bytes once and indexes both names at that record.
func ContentKey(payload []byte) [sha256.Size]byte {
	return sha256.Sum256(payload)
}
