package prisma_test

// End-to-end integration of the shipped binaries: prisma-datagen writes a
// dataset, prisma-server serves it on a UNIX socket, prisma-ctl inspects
// and tunes it over the same socket.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	prisma "github.com/dsrhaslab/prisma-go"
)

// buildCommands compiles the three binaries once into a temp dir.
func buildCommands(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, cmd := range []string{"prisma-server", "prisma-ctl", "prisma-datagen"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	return bin
}

// startServerBinary runs prisma-server with args on a fresh socket, waits
// for the socket to appear, and stops the server when the test ends.
func startServerBinary(t *testing.T, bin string, args ...string) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "it.sock")
	server := exec.Command(filepath.Join(bin, "prisma-server"), append([]string{"-socket", sock}, args...)...)
	serverOut := &strings.Builder{}
	server.Stdout, server.Stderr = serverOut, serverOut
	if err := server.Start(); err != nil {
		t.Fatalf("server start: %v", err)
	}
	t.Cleanup(func() {
		_ = server.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = server.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = server.Process.Kill()
			<-done
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(sock); err == nil {
			return sock
		}
		if time.Now().After(deadline) {
			t.Fatalf("socket never appeared; server output:\n%s", serverOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCommands(t)
	dataDir := t.TempDir()

	// 1. Generate a small dataset.
	out, err := exec.Command(filepath.Join(bin, "prisma-datagen"),
		"-dir", dataDir, "-train-files", "64", "-val-files", "8", "-mean-size", "4096").CombinedOutput()
	if err != nil {
		t.Fatalf("datagen: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "manifest.txt")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}

	// 2. Start the server.
	sock := startServerBinary(t, bin, "-dir", dataDir, "-interval", "50ms")

	ctl := func(args ...string) string {
		t.Helper()
		full := append([]string{"-socket", sock}, args...)
		out, err := exec.Command(filepath.Join(bin, "prisma-ctl"), full...).CombinedOutput()
		if err != nil {
			t.Fatalf("ctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// 3. Ping and tune over the control path.
	if got := ctl("ping"); !strings.Contains(got, "ok") {
		t.Fatalf("ping = %q", got)
	}
	ctl("set-producers", "4")
	ctl("set-buffer", "32")
	stats := ctl("stats")
	if !strings.Contains(stats, "producers (t):    4") {
		t.Fatalf("stats after set-producers:\n%s", stats)
	}
	if !strings.Contains(stats, "/32") {
		t.Fatalf("stats after set-buffer:\n%s", stats)
	}

	// 4. Submit a plan from a file (names come from the manifest).
	manifest, err := os.ReadFile(filepath.Join(dataDir, "manifest.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(manifest), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && strings.HasPrefix(fields[0], "train/") {
			names = append(names, fields[0])
		}
	}
	if len(names) != 64 {
		t.Fatalf("parsed %d train names, want 64", len(names))
	}
	planPath := filepath.Join(t.TempDir(), "plan.txt")
	if err := os.WriteFile(planPath, []byte(strings.Join(names, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := ctl("plan", planPath); !strings.Contains(got, "64 files") {
		t.Fatalf("plan = %q", got)
	}

	// 5. The plan must reach the data plane: queue length + prefetched
	//    counts become visible in stats once producers drain the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats = ctl("stats")
		if strings.Contains(stats, "prefetched files: ") && !strings.Contains(stats, "prefetched files: 0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("producers never prefetched; stats:\n%s", stats)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// 6. Bad invocations fail cleanly.
	if out, err := exec.Command(filepath.Join(bin, "prisma-ctl"), "-socket", sock, "set-producers", "NaN").CombinedOutput(); err == nil {
		t.Fatalf("ctl accepted garbage: %s", out)
	}
	if out, err := exec.Command(filepath.Join(bin, "prisma-server"), "-socket", sock).CombinedOutput(); err == nil {
		t.Fatalf("server without -dir succeeded: %s", out)
	}
}

func TestBenchAndTraceBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"prisma-bench", "prisma-trace"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}

	// A tiny fig3 run produces both CDF tables.
	out, err := exec.Command(filepath.Join(bin, "prisma-bench"),
		"-scale", "0.001", "-runs", "1", "-models", "lenet", "-quiet", "fig3").CombinedOutput()
	if err != nil {
		t.Fatalf("prisma-bench fig3: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"tf-optimized", "prisma", "cumulative", "max threads"} {
		if !strings.Contains(text, want) {
			t.Errorf("fig3 output missing %q:\n%s", want, text)
		}
	}
	// Unknown targets fail.
	if out, err := exec.Command(filepath.Join(bin, "prisma-bench"), "nonsense").CombinedOutput(); err == nil {
		t.Fatalf("unknown target accepted: %s", out)
	}

	// prisma-trace analyzes a hand-written trace.
	tracePath := filepath.Join(t.TempDir(), "t.jsonl")
	traceContent := `{"at":0,"name":"a","size":100,"latency":1000000}
{"at":500000,"name":"b","size":200,"latency":2000000}
`
	if err := os.WriteFile(tracePath, []byte(traceContent), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(filepath.Join(bin, "prisma-trace"), "summary", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("prisma-trace summary: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "events:        2") {
		t.Errorf("summary output unexpected:\n%s", out)
	}
	out, err = exec.Command(filepath.Join(bin, "prisma-trace"), "-bucket", "1ms", "timeline", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("prisma-trace timeline: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "█") {
		t.Errorf("timeline output missing bars:\n%s", out)
	}
	// Garbage trace fails cleanly.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	_ = os.WriteFile(bad, []byte("{nope"), 0o644)
	if out, err := exec.Command(filepath.Join(bin, "prisma-trace"), "summary", bad).CombinedOutput(); err == nil {
		t.Fatalf("garbage trace accepted: %s", out)
	}
}

func TestDatagenRejectsMissingDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCommands(t)
	if out, err := exec.Command(filepath.Join(bin, "prisma-datagen")).CombinedOutput(); err == nil {
		t.Fatalf("datagen without -dir succeeded: %s", out)
	}
}

// TestServerLeasesAcrossProcesses reads through a real prisma-server
// process by shared-memory lease: payloads must be byte-identical to the
// files, the arena descriptor the server sends must refuse a writable
// mapping, and closing the client without releasing its samples must
// return every leased buffer to the server's pool.
func TestServerLeasesAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if runtime.GOOS != "linux" {
		t.Skip("shared-memory leases need Linux")
	}
	bin := buildCommands(t)
	dataDir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		b := make([]byte, 20<<10+rng.Intn(90<<10))
		rng.Read(b)
		name := fmt.Sprintf("s%02d.bin", i)
		if err := os.WriteFile(filepath.Join(dataDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	sock := startServerBinary(t, bin, "-dir", dataDir)

	c, err := prisma.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	c.EnablePooledReads(prisma.BufferPoolOptions{})
	var held []*prisma.Sample
	for name, want := range files {
		smp, err := c.ReadSample(name)
		if err != nil {
			t.Fatalf("ReadSample(%s): %v", name, err)
		}
		if !bytes.Equal(smp.Bytes(), want) {
			t.Fatalf("ReadSample(%s): bytes differ from the file", name)
		}
		held = append(held, smp)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeasedReads != int64(len(files)) || st.InlineReads != 0 || st.LeasesOutstanding != int64(len(files)) {
		t.Fatalf("server lease stats: %d leased, %d inline, %d outstanding; want all %d leased and held",
			st.LeasedReads, st.InlineReads, st.LeasesOutstanding, len(files))
	}

	out, err := exec.Command(filepath.Join(bin, "prisma-ctl"), "-socket", sock, "stats").CombinedOutput()
	if err != nil {
		t.Fatalf("ctl stats: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("socket payloads:  %d leased, 0 inline", len(files)); !strings.Contains(string(out), want) {
		t.Fatalf("ctl stats lacks %q:\n%s", want, out)
	}

	// The descriptor the client received is a read-only reopen of the
	// server's memfd: a writable shared mapping must be refused.
	if err := mapArenaWritable(t); !errors.Is(err, syscall.EACCES) {
		t.Fatalf("writable mapping of the arena descriptor: %v, want EACCES", err)
	}

	// Closing without releasing ends every lease on the server.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	probe, err := prisma.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err = probe.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.PoolOutstanding == 0 && st.LeasesOutstanding == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after close: server pool %d outstanding, %d leases", st.PoolOutstanding, st.LeasesOutstanding)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, smp := range held {
		smp.Release()
	}
	if ps := c.PoolStats(); ps.Outstanding != 0 || ps.Gets != int64(len(files)) {
		t.Fatalf("client pool: %d outstanding of %d gets, want 0 of %d", ps.Outstanding, ps.Gets, len(files))
	}
}
