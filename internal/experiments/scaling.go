package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// Scaling reports: the machine-readable record a scaling driver (e.g.
// cmd/mamut-fleetbench) emits so the performance trajectory — ns/arrival
// by fleet size — is tracked across PRs as a committed JSON artifact
// instead of prose in commit messages. The environment block matters as
// much as the numbers: wall clock is only comparable on the same host.

// ScalingCell is one measured point of a scaling experiment.
type ScalingCell struct {
	// Label identifies the cell (e.g. "n10000").
	Label     string `json:"label"`
	FleetSize int    `json:"fleet_size"`
	// Arrivals is the work the cell processed; ElapsedSec the wall
	// clock it took; NsPerArrival the quotient — the scaling metric.
	Arrivals     int     `json:"arrivals"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	NsPerArrival float64 `json:"ns_per_arrival"`
}

// ScalingReport is the JSON artifact: the environment the cells were
// measured in, plus the cells.
type ScalingReport struct {
	Name       string        `json:"name"`
	CreatedAt  string        `json:"created_at"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Notes      string        `json:"notes,omitempty"`
	Cells      []ScalingCell `json:"cells"`
}

// NewScalingReport stamps a report with the current environment.
func NewScalingReport(name string) *ScalingReport {
	return &ScalingReport{
		Name:       name,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Measure times one run closure and appends its cell. The closure
// returns the number of arrivals it processed (the unit ns/arrival is
// normalised by).
func (r *ScalingReport) Measure(label string, fleetSize int, run func() (int, error)) (*ScalingCell, error) {
	start := time.Now()
	arrivals, err := run()
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("experiments: scaling cell %s: %w", label, err)
	}
	if arrivals <= 0 {
		return nil, fmt.Errorf("experiments: scaling cell %s processed no arrivals", label)
	}
	cell := ScalingCell{
		Label:        label,
		FleetSize:    fleetSize,
		Arrivals:     arrivals,
		ElapsedSec:   elapsed.Seconds(),
		NsPerArrival: float64(elapsed.Nanoseconds()) / float64(arrivals),
	}
	r.Cells = append(r.Cells, cell)
	return &r.Cells[len(r.Cells)-1], nil
}

// WriteJSON writes the indented artifact.
func (r *ScalingReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
