package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"viptree/internal/bench"
	"viptree/internal/engine"
	"viptree/internal/index"
	"viptree/internal/snapshot"
	"viptree/internal/venuegen"
	"viptree/internal/wal"
)

// buildRunner compiles the real queryrunner binary. The shutdown tests must
// signal an actual process: `go run` would put a go wrapper between us and
// the runner, and SIGKILL on the wrapper orphans the child.
func buildRunner(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "queryrunner")
	out, err := exec.Command("go", "build", "-o", bin, "viptree/cmd/queryrunner").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runnerArgs is the fixed churn workload both shutdown tests run. The flags
// must stay in sync with recoverState, which rebuilds the identical base
// index to replay the WAL onto.
func runnerArgs(walDir string) []string {
	return []string{
		"-venue", "MC", "-scale", "tiny", "-index", "vip",
		"-query", "knn", "-n", "2000000", "-update-ratio", "0.3",
		"-batch", "64", "-objects", "50", "-seed", "1",
		"-wal", walDir,
	}
}

// recoverState rebuilds the exact base state the runner started from (same
// venue, index and object seed) and recovers the WAL onto it.
func recoverState(t *testing.T, walDir string) *engine.WALRecovery {
	t.Helper()
	v := venuegen.MelbourneCentral(venuegen.ScaleTiny)
	ix := buildIndex(v, "vip")
	objs := bench.Objects(v, 50, 1+7)
	eng, rep, err := engine.Open(ix, engine.Options{
		Objects:    ix.NewObjectQuerier(objs),
		WALDir:     walDir,
		WALOptions: wal.Options{Sync: wal.SyncAlways()},
	})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close recovered engine: %v", err)
	}
	return rep
}

// waitForChurn blocks until the runner has durably appended something, i.e.
// the update storm is in flight.
func waitForChurn(t *testing.T, walDir string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		entries, err := os.ReadDir(walDir)
		if err == nil {
			for _, e := range entries {
				if info, err := e.Info(); err == nil && info.Size() > 1024 {
					return
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("runner never started appending to the wal")
}

// TestLoadErrorsAreTyped runs the real binary against missing, garbage and
// torn -load snapshots: each must exit non-zero with the typed failure kind
// on stderr, so a supervisor can tell "fix the path" from "re-copy the file".
func TestLoadErrorsAreTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary")
	}
	bin := buildRunner(t)
	dir := t.TempDir()

	valid := filepath.Join(dir, "valid.snap")
	v := venuegen.MelbourneCentral(venuegen.ScaleTiny)
	ix := buildIndex(v, "vip")
	if err := snapshot.Save(valid, v, ix.(index.Snapshotter), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.snap")
	os.WriteFile(garbage, bytes.Repeat([]byte("definitely not a snapshot "), 8), 0o644)
	torn := filepath.Join(dir, "torn.snap")
	os.WriteFile(torn, data[:len(data)/2], 0o644)

	cases := []struct {
		name, load, kind string
	}{
		{"missing", filepath.Join(dir, "no-such.snap"), "[missing]"},
		{"garbage", garbage, "[not-snapshot]"},
		{"torn", torn, "[truncated]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, "-load", tc.load, "-n", "1").CombinedOutput()
			if err == nil {
				t.Fatalf("runner exited 0 on a bad snapshot:\n%s", out)
			}
			var xerr *exec.ExitError
			if !errors.As(err, &xerr) || xerr.ExitCode() == 0 {
				t.Fatalf("want a non-zero exit, got %v", err)
			}
			if !bytes.Contains(out, []byte(tc.kind)) {
				t.Fatalf("stderr missing the typed kind %s:\n%s", tc.kind, out)
			}
		})
	}

	// The happy path still serves: the same binary, the same snapshot, valid.
	out, err := exec.Command(bin, "-load", valid, "-n", "10", "-verify").CombinedOutput()
	if err != nil {
		t.Fatalf("runner failed on the valid snapshot: %v\n%s", err, out)
	}
}

// TestBadFlagValuesPrintOneLine runs the real binary with an unknown -venue,
// -scale and -index: each must exit 2 with a one-line error, not a panic and
// its goroutine trace (a Go panic exits 2 as well, so the exit code alone
// cannot tell the two apart).
func TestBadFlagValuesPrintOneLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary")
	}
	bin := buildRunner(t)
	for _, args := range [][]string{
		{"-venue", "nope", "-scale", "tiny"},
		{"-venue", "MC", "-scale", "huge"},
		{"-venue", "MC", "-scale", "tiny", "-index", "nope"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var xerr *exec.ExitError
		if !errors.As(err, &xerr) || xerr.ExitCode() != 2 {
			t.Errorf("%v: want exit 2, got %v\n%s", args, err, out)
		}
		lines := bytes.Count(bytes.TrimSuffix(out, []byte("\n")), []byte("\n")) + 1
		if lines != 1 || bytes.Contains(out, []byte("panic:")) {
			t.Errorf("%v: want a one-line error, got %d lines:\n%s", args, lines, out)
		}
	}
}

// TestGracefulShutdownLosesNothing interrupts the runner mid-churn and
// verifies the contract printed on its way out: exit code 0, and a recovery
// over the WAL finds exactly the durable sequence it reported — zero
// acknowledged updates lost.
func TestGracefulShutdownLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real binary")
	}
	bin := buildRunner(t)
	walDir := filepath.Join(t.TempDir(), "wal")

	cmd := exec.Command(bin, runnerArgs(walDir)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitForChurn(t, walDir)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runner exited non-zero after SIGINT: %v\n%s", err, out.Bytes())
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("runner did not exit within 60s of SIGINT\n%s", out.Bytes())
	}

	m := regexp.MustCompile(`wal: flushed, durable seq (\d+)`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("runner output has no durable-seq line:\n%s", out.Bytes())
	}
	durable, _ := strconv.ParseUint(string(m[1]), 10, 64)
	if durable == 0 {
		t.Fatalf("runner flushed nothing before exiting:\n%s", out.Bytes())
	}
	if !bytes.Contains(out.Bytes(), []byte("interrupted: drained")) {
		t.Fatalf("runner output missing the drain report:\n%s", out.Bytes())
	}

	rep := recoverState(t, walDir)
	if rep.Head != durable {
		t.Fatalf("runner acknowledged durable seq %d but recovery found head %d", durable, rep.Head)
	}
	if rep.TornTail {
		t.Fatal("graceful shutdown left a torn tail")
	}
	if rep.Replayed != int(rep.Head) {
		t.Fatalf("recovery replayed %d of %d records", rep.Replayed, rep.Head)
	}
}

// TestKillRecover SIGKILLs the runner mid-churn — no drain, no flush — and
// verifies the next start recovers: the scan truncates any torn tail and
// replays the surviving prefix without error.
func TestKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary")
	}
	bin := buildRunner(t)
	walDir := filepath.Join(t.TempDir(), "wal")

	cmd := exec.Command(bin, runnerArgs(walDir)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitForChurn(t, walDir)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("runner survived SIGKILL")
	}

	rep := recoverState(t, walDir)
	if rep.Head == 0 {
		t.Fatal("nothing recovered after SIGKILL despite observed appends")
	}
	if rep.Replayed != int(rep.Head) {
		t.Fatalf("recovery replayed %d of %d records", rep.Replayed, rep.Head)
	}
	// Recovery repaired the log in place: a second scan must be clean.
	rep2 := recoverState(t, walDir)
	if rep2.TornTail || rep2.Head != rep.Head {
		t.Fatalf("recovery not idempotent: first head %d, second %+v", rep.Head, rep2)
	}
}
