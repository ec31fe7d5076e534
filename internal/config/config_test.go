package config

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mamut/internal/experiments"
	"mamut/internal/platform"
)

func TestDefaultRoundTrip(t *testing.T) {
	f := Default()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform.PhysicalCores() != f.Platform.PhysicalCores() {
		t.Error("platform not round-tripped")
	}
	if got.Encoder.CyclesPerPixelUltrafast != f.Encoder.CyclesPerPixelUltrafast {
		t.Error("encoder not round-tripped")
	}
	if len(got.Sequences) != len(f.Sequences) {
		t.Error("sequences not round-tripped")
	}
	if *got.Experiment.Repetitions != *f.Experiment.Repetitions {
		t.Error("experiment params not round-tripped")
	}
}

func TestApplyOverlays(t *testing.T) {
	reps := 2
	warmup := 100
	measure := 50
	seed := int64(9)
	f := &File{Experiment: &ExperimentParams{
		Seed: &seed, Repetitions: &reps, WarmupFrames: &warmup, MeasureFrames: &measure,
	}}
	opts, err := f.Apply(experiments.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if opts.Seed != 9 || opts.Repetitions != 2 || opts.WarmupFrames != 100 || opts.MeasureFrames != 50 {
		t.Errorf("apply result %+v", opts)
	}
	// Sections absent: defaults kept.
	if opts.Spec.PhysicalCores() != 16 || opts.Catalog.Len() != 9 {
		t.Error("absent sections overwrote defaults")
	}
}

func TestApplyCustomCatalog(t *testing.T) {
	in := `{"sequences":[{"Name":"custom","Res":0,"Frames":100,"FrameRate":24,"BaseComplexity":1,"Dynamism":0.4,"MeanSceneLen":60}]}`
	f, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := f.Apply(experiments.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if opts.Catalog.Len() != 1 {
		t.Fatalf("catalog size %d, want 1", opts.Catalog.Len())
	}
	if _, err := opts.Catalog.Get("custom"); err != nil {
		t.Error(err)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	bad := []string{
		"not json",
		`{"unknown_field": 1}`,
		`{"experiment":{"repetitions":0}}`,
		`{"experiment":{"measure_frames":0}}`,
		`{"sequences":[{"Name":"","Res":0,"Frames":1,"FrameRate":24,"BaseComplexity":1,"Dynamism":0,"MeanSceneLen":10}]}`,
		`{"platform":{"Sockets":0}}`,
	}
	for i, in := range bad {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}

	// A platform section that -dump-config wrote while the spec still
	// had a thermal model carries a "Thermal" block: Load refuses it
	// instead of running without the block it asked for.
	var section map[string]any
	spec, err := json.Marshal(platform.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(spec, &section); err != nil {
		t.Fatal(err)
	}
	section["Thermal"] = map[string]any{
		"Enabled": false, "AmbientC": 0, "RthCPerW": 0, "TauSec": 0, "ThrottleC": 0, "ThrottleFactor": 0,
	}
	legacy, err := json.Marshal(map[string]any{"platform": section})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), `"Thermal"`) {
		t.Errorf("platform section with a Thermal block: Load error %v, want the unknown field named", err)
	}
	delete(section, "Thermal")
	current, err := json.Marshal(map[string]any{"platform": section})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(current)); err != nil {
		t.Errorf("the same platform section without the Thermal block: %v", err)
	}
}

func TestLoadPathMissingFile(t *testing.T) {
	if _, err := LoadPath("/nonexistent/config.json"); err == nil {
		t.Error("missing file accepted")
	}
}
