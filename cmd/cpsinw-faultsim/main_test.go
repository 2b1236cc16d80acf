package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// buildTool compiles this command into a temporary directory.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cpsinw-faultsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run executes the tool and returns its stdout, stderr and error.
func run(bin string, args ...string) (string, string, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestC17Golden pins the c17 coverage table byte for byte, on the
// default packed engine and on the reference oracle, and checks that
// engine names outside packed/reference and a zero seed are refused.
func TestC17Golden(t *testing.T) {
	bin := buildTool(t)
	golden := filepath.Join("testdata", "c17.golden")

	got, stderr, err := run(bin, "-circuit", "c17")
	if err != nil {
		t.Fatalf("-circuit c17: %v\n%s", err, stderr)
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-circuit c17 output differs from %s:\n%s", golden, got)
	}

	ref, stderr, err := run(bin, "-circuit", "c17", "-engine", "reference")
	if err != nil {
		t.Fatalf("-engine reference: %v\n%s", err, stderr)
	}
	if ref != got {
		t.Errorf("-engine reference output differs from packed:\n%s", ref)
	}

	for _, engine := range []string{"compiled", "auto"} {
		_, stderr, err := run(bin, "-circuit", "c17", "-engine", engine)
		if err == nil {
			t.Errorf("-engine %s: exit status 0, want non-zero", engine)
		}
		if !strings.Contains(stderr, "unknown engine") {
			t.Errorf("-engine %s: stderr %q, want an unknown engine message", engine, stderr)
		}
	}

	if _, stderr, err := run(bin, "-circuit", "c432", "-seed", "0"); err == nil || !strings.Contains(stderr, "-seed must be non-zero") {
		t.Errorf("-seed 0: err %v, stderr %q, want a non-zero seed error", err, stderr)
	}
}

// TestResultDirReusesReports runs a c432 campaign once into a result
// directory, then reruns it at one shard and at four: each rerun must
// print the same tables and be answered from the stored report. The
// one-shard run stores the report only, no shard artifact.
func TestResultDirReusesReports(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	// tables is the output up to the closing campaign line.
	tables := func(out string) (string, string) {
		i := strings.LastIndex(out, "campaign ")
		if i < 0 {
			t.Fatalf("no campaign line in output:\n%s", out)
		}
		return out[:i], out[i:]
	}

	first, stderr, err := run(bin, "-circuit", "c432", "-shards", "1", "-result-dir", dir)
	if err != nil {
		t.Fatalf("first run: %v\n%s", err, stderr)
	}
	want, line := tables(first)
	if !strings.Contains(line, "1 shards (0 reused from store)") {
		t.Fatalf("first run did not simulate one shard: %q", line)
	}
	for kind, n := range map[string]int{"reports": 1, "shards": 0} {
		if ents, err := os.ReadDir(filepath.Join(dir, kind)); err != nil || len(ents) != n {
			t.Fatalf("result store holds %d %s (err %v), want %d", len(ents), kind, err, n)
		}
	}

	for _, k := range []string{"1", "4"} {
		out, stderr, err := run(bin, "-circuit", "c432", "-shards", k, "-result-dir", dir)
		if err != nil {
			t.Fatalf("-shards %s rerun: %v\n%s", k, err, stderr)
		}
		got, line := tables(out)
		if got != want {
			t.Errorf("-shards %s rerun prints different tables:\n%s\nwant:\n%s", k, got, want)
		}
		if !strings.Contains(line, "answered from the result store, no simulation") {
			t.Errorf("-shards %s rerun was not answered from the store: %q", k, line)
		}
	}
}
