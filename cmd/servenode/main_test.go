package main

import (
	"bytes"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"viptree/internal/iptree"
	"viptree/internal/snapshot"
	"viptree/internal/venuegen"
)

// buildNode compiles the real servenode binary. The test must signal the
// node process itself: `go run` would put a go wrapper in between.
func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "servenode")
	out, err := exec.Command("go", "build", "-o", bin, "viptree/cmd/servenode").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestSIGTERMRightAfterReadyDrains starts the node on a tiny snapshot and
// sends SIGTERM the moment /readyz first answers 200, ten times over. Every
// run must drain: exit 0 and print the "drained:" summary. A signal handler
// registered only after the listener starts leaves a window in which that
// SIGTERM kills the node outright.
func TestSIGTERMRightAfterReadyDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real binary")
	}
	bin := buildNode(t)
	dir := t.TempDir()
	v := venuegen.PaperExample()
	if err := snapshot.Save(filepath.Join(dir, "paper@0001.snap"), v, iptree.MustBuildVIPTree(v, iptree.Options{}), nil); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()

	for run := 0; run < 10; run++ {
		addr := freeAddr(t)
		cmd := exec.Command(bin, "-snapshots", dir, "-listen", addr)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()

		// Poll without pausing, so the signal lands as close to the first
		// 200 as the client can get it there.
		deadline := time.Now().Add(30 * time.Second)
		for ready := false; !ready; {
			select {
			case err := <-done:
				t.Fatalf("run %d: node exited before it was ready: %v\n%s", run, err, out.Bytes())
			default:
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				<-done
				t.Fatalf("run %d: node not ready within 30s\n%s", run, out.Bytes())
			}
			if resp, err := client.Get("http://" + addr + "/readyz"); err == nil {
				ready = resp.StatusCode == http.StatusOK
				resp.Body.Close()
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: node exited with %v after SIGTERM\n%s", run, err, out.Bytes())
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatalf("run %d: node did not exit within 30s of SIGTERM\n%s", run, out.Bytes())
		}
		if !bytes.Contains(out.Bytes(), []byte("servenode: drained:")) {
			t.Fatalf("run %d: no drain summary after SIGTERM\n%s", run, out.Bytes())
		}
		client.CloseIdleConnections()
	}
}
