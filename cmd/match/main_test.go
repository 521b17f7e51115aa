package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"match/internal/apps"
	"match/internal/apps/appkit"
	"match/internal/simnet"
)

// asCommand is the environment marker under which the test binary runs
// main instead of the tests, so each test drives the real command: its
// flags, its stdout and stderr, and its exit status. Under the value
// sleeperAsHPCCG, the command's HPCCG is the sleeper app: the command takes
// an app's iteration count from Table I, so a fixture app borrows a Table I
// name.
const (
	asCommand      = "MATCH_TEST_AS_COMMAND"
	sleeperAsHPCCG = "sleeper-as-HPCCG"
)

func TestMain(m *testing.M) {
	switch os.Getenv(asCommand) {
	case "":
		os.Exit(m.Run())
	case sleeperAsHPCCG:
		apps.Unregister("HPCCG")
		if err := apps.Register("HPCCG", func() appkit.App { return sleeper{} }); err != nil {
			panic(err)
		}
	}
	main()
	os.Exit(0)
}

// sleeper is an app whose every step sleeps 10000 s of virtual time, so a
// cell of more than 20 iterations outlasts the run's virtual deadline.
type sleeper struct{}

func (sleeper) Name() string                               { return "Sleeper" }
func (sleeper) Init(*appkit.Context) error                 { return nil }
func (sleeper) Signature(*appkit.Context) (float64, error) { return 0, nil }

func (sleeper) Step(ctx *appkit.Context, _ int) error {
	ctx.R.Compute(10000 * simnet.Second)
	return nil
}

// run executes the command with args and returns its stdout, its stderr
// lines and its exit status.
func run(t *testing.T, args ...string) (stdout string, stderr []string, status int) {
	t.Helper()
	return runAs(t, "1", args...)
}

// runAs is run under the marker value as.
func runAs(t *testing.T, as string, args ...string) (stdout string, stderr []string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asCommand+"="+as)
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

// A cell that trips the virtual deadline (the sleeper app under Restart,
// rank 3 killed at iteration 12) is a failed cell, not a crashed process:
// one line and status 1, no stack.
func TestDeadlineCellFailsInOneLine(t *testing.T) {
	_, stderr, status := runAs(t, sleeperAsHPCCG, "-design", "restart", "-app", "HPCCG", "-procs", "8",
		"-fault-schedule", "3@12")
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
