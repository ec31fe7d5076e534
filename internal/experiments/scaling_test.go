package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestScalingReportMeasure(t *testing.T) {
	r := NewScalingReport("test")
	if r.NumCPU < 1 || r.GOMAXPROCS < 1 || r.GoVersion == "" {
		t.Fatalf("environment not stamped: %+v", r)
	}
	for _, cell := range []struct {
		label string
		size  int
		n     int
	}{
		{"n100", 100, 1000},
		{"n200", 200, 500},
	} {
		if _, err := r.Measure(cell.label, cell.size, func() (int, error) {
			// Busy-spin so the cell measures a nonzero wall clock.
			sink := 0
			for i := 0; i < 1e6; i++ {
				sink += i
			}
			_ = sink
			return cell.n, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.Cells) != 2 {
		t.Fatalf("got %d cells", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.NsPerArrival <= 0 || c.ElapsedSec <= 0 {
			t.Fatalf("cell %s not measured: %+v", c.Label, c)
		}
		if got := c.ElapsedSec * 1e9 / float64(c.Arrivals); got/c.NsPerArrival < 0.999 || got/c.NsPerArrival > 1.001 {
			t.Fatalf("cell %s: ns/arrival %g is not elapsed/arrivals (%g)", c.Label, c.NsPerArrival, got)
		}
	}
	if r.Cells[1].Label != "n200" || r.Cells[1].FleetSize != 200 || r.Cells[1].Arrivals != 500 {
		t.Fatalf("cell recorded wrongly: %+v", r.Cells[1])
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"fleet_size"`, `"ns_per_arrival"`, `"gomaxprocs"`, `"n200"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("artifact missing %s:\n%s", want, buf.String())
		}
	}
}

func TestScalingReportMeasureErrors(t *testing.T) {
	r := NewScalingReport("test")
	if _, err := r.Measure("bad", 1, func() (int, error) { return 0, nil }); err == nil {
		t.Fatal("zero arrivals should be an error")
	}
	if len(r.Cells) != 0 {
		t.Fatal("failed cells must not be recorded")
	}
}
