package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// buildTool compiles this command into a temporary directory.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cpsinw-atpg")
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

// TestATPGGolden pins the full -v output (coverage table, untestable
// list and every generated vector) byte for byte on c17 and on alu6,
// whose untestable faults drive PODEM through backtracking and its
// budget. The reference fault-dropping engine must print the same bytes.
func TestATPGGolden(t *testing.T) {
	bin := buildTool(t)
	for _, name := range []string{"c17", "alu6"} {
		golden := filepath.Join("testdata", name+".golden")
		got, stderr, err := run(bin, "-circuit", name, "-v")
		if err != nil {
			t.Fatalf("-circuit %s -v: %v\n%s", name, err, stderr)
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
			t.Errorf("-circuit %s -v output differs from %s:\n%s", name, golden, got)
		}

		ref, stderr, err := run(bin, "-circuit", name, "-v", "-engine", "reference")
		if err != nil {
			t.Fatalf("-circuit %s -engine reference: %v\n%s", name, err, stderr)
		}
		if ref != got {
			t.Errorf("-circuit %s -engine reference output differs from packed:\n%s", name, ref)
		}
	}
}
