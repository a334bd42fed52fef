package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/recordio"
)

// Dataset shape shared by every workload: ImageNet-like log-normal sample
// sizes (mean 110 KiB, sigma 0.5; about 220 MiB in all).
const (
	datasetSamples = 2048
	meanSampleSize = 110 << 10
	sampleSigma    = 0.5
	shardBytes     = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// layout selects how a fixture stores its samples.
type layout int

const (
	filePerSample layout = iota // one file per sample under dir/train/
	packed                      // uncompressed recordio shards under dir/shards/
)

// fixture is one workload's dataset on real files, generated from the seed
// before anything is timed.
type fixture struct {
	dir         string            // dataset root handed to the system
	man         *dataset.Manifest // sample names and sizes, in name order
	crc         []uint32          // CRC-32C of each sample's payload, by manifest index
	index       *recordio.Index   // packed layout only
	storedBytes int64             // payload volume after LZ compression (compressible fixtures)
}

// newFixture writes datasetSamples seeded payloads under root. With
// compressible set, half of every KiB is random and half is zero, so LZ
// compression stores about 2:1.
func newFixture(root string, seed int64, lay layout, compressible bool) (*fixture, error) {
	man, err := dataset.Synthetic("train", datasetSamples, meanSampleSize, sampleSigma, seed)
	if err != nil {
		return nil, err
	}
	fx := &fixture{man: man, crc: make([]uint32, man.Len())}
	tree := filepath.Join(root, "tree")
	var buf []byte
	for i := 0; i < man.Len(); i++ {
		s := man.Sample(i)
		if int64(cap(buf)) < s.Size {
			buf = make([]byte, s.Size)
		}
		payload := buf[:s.Size]
		fillPayload(payload, seed, i, compressible)
		fx.crc[i] = crc32.Checksum(payload, castagnoli)
		if compressible {
			if comp, ok := recordio.Compress(payload); ok {
				fx.storedBytes += int64(len(comp))
			} else {
				fx.storedBytes += s.Size
			}
		}
		path := filepath.Join(tree, filepath.FromSlash(s.Name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := writeSynced(path, payload); err != nil {
			return nil, err
		}
	}
	if lay == filePerSample {
		fx.dir = tree
		return fx, nil
	}
	fx.dir = filepath.Join(root, "packed")
	fx.index, err = recordio.PackDir(tree, man, fx.dir, "shards", shardBytes)
	if err != nil {
		return nil, fmt.Errorf("packing fixture: %w", err)
	}
	for _, shard := range fx.index.Shards() {
		if err := syncFile(filepath.Join(fx.dir, filepath.FromSlash(shard))); err != nil {
			return nil, err
		}
	}
	// Only the shards stay, so the page cache holds one copy of the data.
	return fx, os.RemoveAll(tree)
}

// writeSynced writes a fixture file and waits for it to reach the disk,
// so no writeback of fixture data runs while the benchmark measures.
func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fillPayload writes sample i's deterministic content into b.
func fillPayload(b []byte, seed int64, i int, compressible bool) {
	rng := rand.NewPCG(uint64(seed), uint64(i))
	var word [8]byte
	for off := 0; off < len(b); off += 8 {
		if compressible && off%1024 >= 512 {
			clear(b[off:min(off+8, len(b))])
			continue
		}
		binary.LittleEndian.PutUint64(word[:], rng.Uint64())
		copy(b[off:], word[:])
	}
}

// verify reports whether a delivered payload is sample i's, by size and
// CRC-32C.
func (fx *fixture) verify(i int, b []byte) bool {
	return int64(len(b)) == fx.man.Sample(i).Size && crc32.Checksum(b, castagnoli) == fx.crc[i]
}
