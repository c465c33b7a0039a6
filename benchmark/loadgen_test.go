package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cadmc/internal/nn"
)

func TestPoissonScheduleIsSeedDeterministic(t *testing.T) {
	const rate, dur = 150.0, 4 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(7)), rate, dur)
	b := poissonSchedule(rand.New(rand.NewSource(7)), rate, dur)
	c := poissonSchedule(rand.New(rand.NewSource(8)), rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d due at %v and %v", i, a[i], b[i])
		}
		if a[i] >= dur || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d due at %v: outside [0, %v) or out of order", i, a[i], dur)
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	// 600 expected arrivals, standard deviation about 24.
	if want := rate * dur.Seconds(); math.Abs(float64(len(a))-want) > 5*math.Sqrt(want) {
		t.Errorf("%d arrivals at %g/s over %v, want about %.0f", len(a), rate, dur, want)
	}
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	shape := nn.Shape{C: 3, H: 8, W: 8}
	a, b, c := makeInputs(3, shape, 4), makeInputs(3, shape, 4), makeInputs(4, shape, 4)
	differs := false
	for i := range a {
		if got := a[i].Shape; len(got) != 3 || got[0] != 3 || got[1] != 8 || got[2] != 8 {
			t.Fatalf("input %d has shape %v", i, got)
		}
		for j := range a[i].Data {
			if math.Float64bits(a[i].Data[j]) != math.Float64bits(b[i].Data[j]) {
				t.Fatalf("same seed, input %d element %d differs", i, j)
			}
			differs = differs || math.Float64bits(a[i].Data[j]) != math.Float64bits(c[i].Data[j])
		}
	}
	if !differs {
		t.Error("seeds 3 and 4 gave the same inputs")
	}
}
