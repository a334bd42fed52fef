package ipc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// FuzzFrame hardens the wire decoder against hostile peers: arbitrary
// byte streams must never panic or over-allocate, and every accepted frame
// must re-encode to the bytes consumed.
func FuzzFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = writeFrame(&buf, OpRead, 0x1234, appendString(nil, "train/0001.jpg"))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	// A read response whose payload is the pool's largest size class
	// (mempool's default MaxSize): the shape the vectored server write and
	// the pooled client decode exchange at full size.
	{
		pooledMax := mempool.New(mempool.Config{}).Get(4 << 20)
		body := pooledMax.Bytes()
		for i := range body {
			body[i] = byte(i)
		}
		head := append([]byte{statusOK}, binary.AppendUvarint(nil, uint64(len(body)))...)
		head = binary.AppendUvarint(head, uint64(len(body)))
		var maxFrame bytes.Buffer
		_ = writeFrame(&maxFrame, OpRead, 0x99, append(head, body...))
		f.Add(maxFrame.Bytes())
		pooledMax.Release()
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		opcode, trace, payload, err := readFrame(bytes.NewReader(data))
		// The server's buffered decoder, with a buffer small enough that
		// larger frames take its one-off path, must agree.
		fr := frameReader{buf: make([]byte, 64)}
		bop, btrace, bpayload, berr := fr.next(bytes.NewReader(data))
		if (err == nil) != (berr == nil) {
			t.Fatalf("readFrame err=%v, frameReader err=%v", err, berr)
		}
		if err != nil {
			return
		}
		if bop != opcode || btrace != trace || !bytes.Equal(bpayload, payload) {
			t.Fatal("frameReader decoded a different frame than readFrame")
		}
		if len(payload)+9 > MaxFrame {
			t.Fatalf("accepted oversized payload %d", len(payload))
		}
		var out bytes.Buffer
		if err := writeFrame(&out, opcode, trace, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("re-encode mismatch")
		}
		// The zero-copy decoders must agree byte-for-byte with the copying
		// ones on every accepted payload.
		cb, crest, cerr := readBytes(payload)
		nb, nrest, nerr := readBytesNoCopy(payload)
		if (cerr == nil) != (nerr == nil) {
			t.Fatalf("readBytes err=%v, readBytesNoCopy err=%v", cerr, nerr)
		}
		if cerr == nil && (!bytes.Equal(cb, nb) || !bytes.Equal(crest, nrest)) {
			t.Fatal("readBytesNoCopy disagrees with readBytes")
		}
		cs, srest, serr := readString(payload)
		sb, brest, berr := readStringBytes(payload)
		if (serr == nil) != (berr == nil) {
			t.Fatalf("readString err=%v, readStringBytes err=%v", serr, berr)
		}
		if serr == nil && (cs != string(sb) || !bytes.Equal(srest, brest)) {
			t.Fatal("readStringBytes disagrees with readString")
		}
	})
}

// FuzzServerHandle drives the request dispatcher directly with arbitrary
// opcode/payload pairs: the server must always produce a well-formed
// response and never panic, whatever a client sends.
//
// OpPlan is remapped to OpPing in the fuzzed space: a plan changes stage
// state, and a later OpRead of a planned-but-not-yet-prefetched name
// legitimately blocks that connection (Take waits for the producers),
// which would wedge the fuzz worker. Plan/read interleavings are covered
// by the deterministic tests; here we fuzz the stateless parsing surface.
func FuzzServerHandle(f *testing.F) {
	srv, _, names, _ := fuzzServer(f)
	f.Add(uint8(OpRead), appendString(nil, names[0]))
	f.Add(uint8(OpStats), []byte{})
	f.Add(uint8(OpSetProducers), []byte{0xFF})
	f.Add(uint8(99), []byte{1, 2, 3})

	cs := newConnState()
	f.Fuzz(func(t *testing.T, opcode uint8, payload []byte) {
		if opcode == OpPlan {
			opcode = OpPing
		}
		r := srv.safeHandle(cs, opcode, 0, payload)
		resp := append(append([]byte(nil), r.head...), r.body...)
		if r.ref != nil {
			r.ref.Release()
		}
		if len(resp) < 1 {
			t.Fatal("empty response")
		}
		if resp[0] != statusOK && resp[0] != statusErr {
			t.Fatalf("unknown status byte %d", resp[0])
		}
		if _, err := parseResponse(resp); err != nil {
			// RemoteError is fine; malformed responses are not.
			if _, ok := err.(*RemoteError); !ok {
				t.Fatalf("server emitted malformed response: %v", err)
			}
		}
	})
}

// fuzzServer builds a server directly (fuzz entry points receive a
// *testing.F, so the testing.T-based startServer helper does not apply).
func fuzzServer(f *testing.F) (*Server, *core.Stage, []string, string) {
	f.Helper()
	dir := f.TempDir()
	samples := make([]dataset.Sample, 4)
	names := make([]string, 4)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%03d.bin", i), Size: 1024}
		names[i] = samples[i].Name
	}
	man := dataset.MustNew(samples)
	if err := dataset.Generate(dir, man, 42); err != nil {
		f.Fatal(err)
	}
	env := conc.NewReal()
	backend := storage.NewDirBackend(dir)
	pf, err := core.NewPrefetcher(env, backend, core.PrefetcherConfig{
		InitialProducers: 1, MaxProducers: 4, InitialBufferCapacity: 8, MaxBufferCapacity: 32,
	})
	if err != nil {
		f.Fatal(err)
	}
	stage := core.NewStage(env, backend, core.NewPrefetchObject(pf))
	pf.Start()
	sock := filepath.Join(f.TempDir(), "fuzz.sock")
	srv, err := Serve(sock, stage)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		srv.Close()
		stage.Close()
	})
	return srv, stage, names, sock
}
