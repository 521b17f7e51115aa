package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// asCommand is the environment marker under which the test binary runs
// main instead of the tests, so each test drives the real command: its
// flags, its stdout and stderr, and its exit status.
const asCommand = "MATCH_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its stdout, its stderr
// lines and its exit status.
func run(t *testing.T, args ...string) (stdout string, stderr []string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asCommand+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		status = exit.ExitCode()
	case err != nil:
		t.Fatalf("running the command: %v", err)
	}
	if s := strings.TrimRight(errOut.String(), "\n"); s != "" {
		stderr = strings.Split(s, "\n")
	}
	return out.String(), stderr, status
}

func TestListDesigns(t *testing.T) {
	stdout, stderr, status := run(t, "-list-designs")
	if status != 0 || len(stderr) != 0 {
		t.Fatalf("exit %d, stderr %q; want 0 and nothing", status, stderr)
	}
	for _, d := range []string{"restart", "reinit", "ulfm", "replica"} {
		if !strings.Contains(stdout, "  "+d+" ") {
			t.Errorf("design %s missing from:\n%s", d, stdout)
		}
	}
	if n := strings.Count(stdout, "\n"); n != 5 {
		t.Errorf("%d lines, want a heading and four designs:\n%s", n, stdout)
	}
}

// A setting core rejects is a usage error: status 2 and core's one line,
// before any output.
func TestBadLevelIsAUsageError(t *testing.T) {
	stdout, stderr, status := run(t, "-level", "7")
	want := "core: FTI level 7 invalid (levels are 1-4: L1 local, L2 partner copy, L3 Reed-Solomon, L4 PFS; 0 means L1)"
	if status != 2 || len(stderr) != 1 || stderr[0] != want || stdout != "" {
		t.Fatalf("exit %d, stderr %q, stdout %q; want 2, [%q] and nothing", status, stderr, stdout, want)
	}
}

// A repetition count below one used to run one rep and print "(avg of 0)".
func TestBadRepsIsAUsageError(t *testing.T) {
	for _, reps := range []string{"0", "-2"} {
		stdout, stderr, status := run(t, "-reps", reps)
		want := "core: repetition " + reps + " invalid (reps count from 1)"
		if status != 2 || len(stderr) != 1 || stderr[0] != want || stdout != "" {
			t.Fatalf("-reps %s: exit %d, stderr %q, stdout %q; want 2, [%q] and nothing", reps, status, stderr, stdout, want)
		}
	}
}

// A cell that trips the virtual deadline (ULFM losing a node under L2, a
// known livelock) is a failed cell, not a crashed process: one line and
// status 1, no stack.
func TestDeadlineCellFailsInOneLine(t *testing.T) {
	_, stderr, status := run(t, "-design", "ulfm", "-app", "HPCCG", "-procs", "8", "-level", "2",
		"-fault-schedule", "3@12:kind=node")
	if status != 1 || len(stderr) != 1 {
		t.Fatalf("exit %d, stderr %q; want 1 and one line", status, stderr)
	}
	line := stderr[0]
	if !strings.HasPrefix(line, "run failed: ") || !strings.Contains(line, "virtual deadline") || !strings.Contains(line, " exceeded") {
		t.Errorf("stderr %q, want run failed: … virtual deadline … exceeded", line)
	}
	if strings.Contains(line, "goroutine ") {
		t.Errorf("stderr carries a stack trace: %q", line)
	}
}
