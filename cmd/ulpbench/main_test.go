package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets a test re-run this binary as ulpbench itself: invoked
// with "ulpbench" as its first argument, it runs main on the remaining
// ones.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "ulpbench" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCountsRejected: a repetition count or sweep width below one is
// a usage error (exit status 2, one line naming the flag) before any
// experiment runs, not an all-zero table with exit status 0.
func TestBadCountsRejected(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-runs", "0", "-runs must be >= 1, got 0"},
		{"-runs", "-1", "-runs must be >= 1, got -1"},
		{"-parallel", "0", "-parallel must be >= 1, got 0"},
		{"-parallel", "-4", "-parallel must be >= 1, got -4"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "ulpbench", "-exp", "table3", tc.flag, tc.value)
			cmd.Dir = t.TempDir()
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("ulpbench %s %s: err = %v, want exit status 2\n%s", tc.flag, tc.value, err, out)
			}
			if want := "ulpbench: " + tc.want + "\n"; string(out) != want {
				t.Errorf("output = %q, want %q", out, want)
			}
		})
	}
}

func TestCheckCounts(t *testing.T) {
	for _, tc := range []struct {
		runs, parallel int
		ok             bool
	}{
		{3, 2, true},
		{1, 1, true},
		{0, 1, false},
		{1, 0, false},
	} {
		if err := checkCounts(tc.runs, tc.parallel); (err == nil) != tc.ok {
			t.Errorf("checkCounts(%d, %d) = %v, want ok=%v", tc.runs, tc.parallel, err, tc.ok)
		}
	}
}
