package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as ulpsim itself: invoked with
// "ulpsim" as its first argument, it runs main on the remaining ones.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "ulpsim" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeExploreBoundsRejected: a negative explorer budget is a
// usage error (exit status 2 with a message naming the flag), not a
// silently accepted default.
func TestNegativeExploreBoundsRejected(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-explore-depth", "-1"},
		{"-explore-runs", "-5"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "ulpsim", "-explore", tc.flag, tc.value)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("ulpsim -explore %s %s: err = %v, want exit status 2\n%s", tc.flag, tc.value, err, out)
			}
			if want := "ulpsim: " + tc.flag + " must be >= 0, got " + tc.value; !strings.Contains(string(out), want) {
				t.Errorf("output = %q, want it to contain %q", out, want)
			}
		})
	}
}

func TestCheckExploreBounds(t *testing.T) {
	for _, tc := range []struct {
		runs, depth int
		ok          bool
	}{
		{64, 4, true},
		{0, 0, true},
		{-5, 4, false},
		{64, -1, false},
	} {
		if err := checkExploreBounds(tc.runs, tc.depth); (err == nil) != tc.ok {
			t.Errorf("checkExploreBounds(%d, %d) = %v, want ok=%v", tc.runs, tc.depth, err, tc.ok)
		}
	}
}

// TestBadNumericFlagsRejected: every numeric flag outside what the
// simulator can honour is a usage error (exit status 2, one line naming
// the flag), never a panic or a silently accepted value.
func TestBadNumericFlagsRejected(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-syscall-cores", "-2", "-syscall-cores must be >= 1, got -2"},
		{"-prog-cores", "0", "-prog-cores must be >= 1, got 0"},
		{"-write-size", "-5", "-write-size must be >= 0, got -5"},
		{"-compute-us", "-3", "-compute-us must be >= 0, got -3"},
		{"-compute-us", "NaN", "-compute-us must be >= 0, got NaN"},
		{"-compute-us", "Inf", "-compute-us must be finite, got +Inf"},
		{"-ulps", "-1", "-ulps must be >= 0, got -1"},
		{"-ops", "-1", "-ops must be >= 0, got -1"},
		{"-trace-cap", "-1", "-trace-cap must be >= 0, got -1"},
		{"-preempt-us", "-1", "-preempt-us must be >= 0, got -1"},
		{"-stall-horizon", "-1", "-stall-horizon must be >= 0, got -1"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "ulpsim", tc.flag, tc.value)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("ulpsim %s %s: err = %v, want exit status 2\n%s", tc.flag, tc.value, err, out)
			}
			if want := "ulpsim: " + tc.want + "\n"; string(out) != want {
				t.Errorf("output = %q, want %q", out, want)
			}
		})
	}
}

// TestZeroCountsAccepted: the zero ends of the count flags stay valid
// (an empty workload, an unbounded trace).
func TestZeroCountsAccepted(t *testing.T) {
	cmd := exec.Command(os.Args[0], "ulpsim", "-ulps", "0", "-ops", "0", "-write-size", "0", "-compute-us", "0", "-trace-cap", "0")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("ulpsim with zero counts: %v\n%s", err, out)
	}
}
