package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// buildTool compiles this command into a temporary directory.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cpsinw-diagnose")
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

var (
	builtLine  = regexp.MustCompile(`(?m)^built .*/([0-9a-f]{64})\.cpd$`)
	createdAt  = regexp.MustCompile(`\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ`)
	compressed = regexp.MustCompile(`\d+ bytes compressed`)
)

// TestC17Golden pins the output of build, inspect and match on c17 byte
// for byte. What varies from run to run is masked: the store path, the
// artifact's creation time (RFC 3339 in UTC, a fixed width, so the
// table layout does not move) and its compressed size, which the
// embedded timestamp perturbs. The refusals exit non-zero with their
// message.
func TestC17Golden(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	var transcript strings.Builder
	step := func(args ...string) string {
		t.Helper()
		out, stderr, err := run(bin, args...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", strings.Join(args, " "), err, stderr)
		}
		transcript.WriteString("$ cpsinw-diagnose " + strings.ReplaceAll(strings.Join(args, " "), dir, "<store>") + "\n")
		transcript.WriteString(out)
		return out
	}

	built := step("build", "-circuit", "c17", "-dir", dir)
	m := builtLine.FindStringSubmatch(built)
	if m == nil {
		t.Fatalf("build printed no artifact path:\n%s", built)
	}
	key := m[1]
	step("inspect", "-dir", dir, "-key", key)
	step("match", "-dir", dir, "-key", key, "-fail", "1,5,9")

	got := strings.ReplaceAll(transcript.String(), dir, "<store>")
	got = createdAt.ReplaceAllString(got, "<created>")
	got = compressed.ReplaceAllString(got, "<n> bytes compressed")
	golden := filepath.Join("testdata", "c17.golden")
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
		t.Errorf("output differs from %s:\n%s", golden, got)
	}

	artifact := filepath.Join(dir, key+".cpd")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"match", "-dir", dir, "-key", key}, "at least one -fail or -leak index is required"},
		{[]string{"match", "-dir", dir, "-key", key, "-fail", "32"}, "index 32 out of range (dictionary has 32 patterns)"},
		{[]string{"match", "-file", artifact, "-dir", dir, "-fail", "1"}, "-file and -dir/-key are mutually exclusive"},
	} {
		_, stderr, err := run(bin, tc.args...)
		if err == nil || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: err %v, stderr %q, want a refusal naming %q", strings.Join(tc.args, " "), err, stderr, tc.want)
		}
	}
}
