package main

import (
	"math"
	"testing"
)

func TestHostSpeed(t *testing.T) {
	for i := 0; i < 3; i++ {
		s, err := hostSpeed()
		if err != nil {
			t.Fatal(err)
		}
		if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			t.Fatalf("host speed %v, want a positive number", s)
		}
	}
}

func TestCPUAtRef(t *testing.T) {
	if got := cpuAtRef(3, 1); got != 3 {
		t.Errorf("cpuAtRef(3, 1) = %v, want 3: the reference speed changes nothing", got)
	}
	if got, want := cpuAtRef(3, 2), 3/math.Pow(2, calElasticity); got != want {
		t.Errorf("cpuAtRef(3, 2) = %v, want %v", got, want)
	}
}
