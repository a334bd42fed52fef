package prisma_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// mapArenaWritable tries a writable shared mapping of the arena descriptor
// this process received from a server.
func mapArenaWritable(t *testing.T) error {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(target, "/memfd:prisma-arena") {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		b, err := syscall.Mmap(fd, 0, 4096, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
		if err == nil {
			syscall.Munmap(b)
		}
		return err
	}
	t.Fatal("no arena descriptor open in this process")
	return nil
}
