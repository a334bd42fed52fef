package recordio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzDecode hardens the record decoder against arbitrary byte strings:
// it must never panic, and whenever it accepts a buffer the re-encoded
// record must round-trip to the same payload.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid records, empty, truncations, corruptions.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_, _, _ = w.WriteRecord([]byte("seed payload"))
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:3])
	f.Add(valid[:headerSize])
	corrupted := append([]byte{}, valid...)
	corrupted[headerSize] ^= 0x55
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, recLen, err := Decode(data)
		if err != nil {
			return
		}
		if recLen < headerSize || recLen > int64(len(data)) {
			t.Fatalf("accepted record length %d outside [8, %d]", recLen, len(data))
		}
		// Round-trip: re-encoding the accepted payload reproduces the
		// record bytes.
		var out bytes.Buffer
		wr := NewWriter(&out)
		if _, _, err := wr.WriteRecord(payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:recLen]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

// FuzzReaderStream feeds arbitrary streams to the streaming reader: no
// panics, and every accepted record passes its checksum by construction.
func FuzzReaderStream(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_, _, _ = w.WriteRecord([]byte("a"))
	_, _, _ = w.WriteRecord([]byte("bb"))
	f.Add(buf.Bytes())
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}

// decompressReference is the original byte-at-a-time LZ decoder, kept as
// the oracle DecompressInto is fuzzed against.
func decompressReference(dst, src []byte) error {
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
			from := di - int(off)
			for j := 0; j < int(n); j++ {
				dst[di+j] = dst[from+j]
			}
			di += int(n)
		default:
			return fmt.Errorf("%w: unknown tag %#02x", ErrCorrupt, tag)
		}
	}
	if di != len(dst) {
		return fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, di, len(dst))
	}
	return nil
}

// FuzzLZ checks the LZ codec differentially. Compress must round-trip raw
// through both decoders with a strictly smaller encoding, and for an
// arbitrary (dstLen, stream) DecompressInto must accept exactly what the
// reference decoder accepts, with the same error text or the same bytes.
// Neither decoder may panic.
func FuzzLZ(f *testing.F) {
	src := bytes.Repeat([]byte("abcdefgh"), 1024)
	comp, ok := Compress(src)
	if !ok {
		f.Fatal("seed should compress")
	}
	n := uint16(len(src))
	// Raw seeds stay short: minimizing an interesting multi-KiB input
	// stalls the fuzzer for most of a smoke run.
	raw := src[:64]
	// The cases of TestDecompressIntoRejectsCorruption, then valid ones.
	f.Add(raw, n-1, comp)
	f.Add(raw, n+1, comp)
	f.Add(raw, n, append([]byte{0xFF}, comp...))
	f.Add(raw, n, comp[:len(comp)/2])
	f.Add(raw, n, []byte(nil))
	f.Add(raw, n, []byte{lzTagCopy, 4, 4})
	f.Add(raw, n, []byte{lzTagCopy, 0, 4})
	f.Add(raw, n, []byte{lzTagLiteral, 200, 'x'})
	f.Add(raw, n, comp)
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaa"), uint16(6), []byte{lzTagLiteral, 2, 'a', 'b', lzTagCopy, 2, 4})

	f.Fuzz(func(t *testing.T, raw []byte, dstLen uint16, stream []byte) {
		if enc, ok := Compress(raw); ok {
			if len(enc) >= len(raw) {
				t.Fatalf("accepted encoding is not smaller: %d >= %d", len(enc), len(raw))
			}
			for name, decode := range map[string]func(dst, src []byte) error{
				"DecompressInto": DecompressInto, "reference": decompressReference,
			} {
				out := make([]byte, len(raw))
				if err := decode(out, enc); err != nil || !bytes.Equal(out, raw) {
					t.Fatalf("%s: round trip failed: %v", name, err)
				}
			}
		}

		got, want := make([]byte, dstLen), make([]byte, dstLen)
		gotErr, wantErr := DecompressInto(got, stream), decompressReference(want, stream)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("DecompressInto err %v, reference err %v", gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text %q, reference %q", gotErr, wantErr)
			}
		case !bytes.Equal(got, want):
			t.Fatal("DecompressInto and reference decoded different bytes")
		}
	})
}
