package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestStatediffOnDeterministicApp(t *testing.T) {
	var out bytes.Buffer
	if err := statediff([]string{"fft", "-small", "-threads", "4", "-runs", "6"}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "fft is deterministic across 6 runs (7 checking points); nothing to diff\n"; out.String() != want {
		t.Errorf("output %q; want %q", out.String(), want)
	}
}

func TestStatediffLocalizesSeededBug(t *testing.T) {
	var out bytes.Buffer
	if err := statediff([]string{"radix", "-small", "-threads", "4", "-runs", "10", "-bug", "order"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"NONDETERMINISTIC", "localized between", "first divergence", "differing words", "site static:radix."} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
}

// TestStatediffRespectsRounding checks that under -round the diff lists
// only words that moved the State Hash. cholesky's factored matrix
// (static:ch.a) holds floats whose last bits depend on the schedule; they
// hash alike under the floor-to-0.001 policy, so with -round the report
// leaves them out, and without it, where the hash compares raw bits, it
// lists them.
func TestStatediffRespectsRounding(t *testing.T) {
	args := []string{"cholesky", "-small", "-threads", "4", "-runs", "10"}
	for _, round := range []bool{false, true} {
		a := args
		if round {
			a = append(a[:len(a):len(a)], "-round")
		}
		var out bytes.Buffer
		if err := statediff(a, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		if !strings.Contains(s, "NONDETERMINISTIC") || !strings.Contains(s, "static:ch.freeHeads") {
			t.Fatalf("statediff %q does not localize the free-list divergence:\n%s", a, s)
		}
		if got := strings.Contains(s, "static:ch.a#"); got == round {
			t.Errorf("statediff %q lists static:ch.a: %v, want %v:\n%s", a, got, !round, s)
		}
	}
}

// TestStatediffArgumentErrors checks that a missing or unknown workload,
// an unknown bug, a bug the workload does not host and a thread count the
// daemon would refuse all fail before any run.
func TestStatediffArgumentErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage"},
		{[]string{"nosuchapp"}, `unknown workload "nosuchapp"`},
		{[]string{"radix", "-bug", "weird"}, `unknown bug "weird"`},
		{[]string{"fft", "-small", "-threads", "4", "-runs", "6", "-bug", "order"}, `workload "fft" does not host a order violation bug`},
		{[]string{"radix", "-threads", "300"}, "threads = 300; want at most 254"},
	} {
		var out bytes.Buffer
		err := statediff(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("statediff %q: %v; want an error containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("statediff %q printed %q", tc.args, out.String())
		}
	}
}
