// Package config loads and saves the simulator's calibration and
// experiment parameters as JSON, so a deployment can re-calibrate the
// platform/encoder models (README "Quickstart") or change the experiment
// protocol without recompiling.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mamut/internal/experiments"
	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/video"
)

// ExperimentParams are the protocol knobs of experiments.Options that make
// sense in a file (the catalog and models are configured separately).
type ExperimentParams struct {
	Seed          *int64 `json:"seed,omitempty"`
	Repetitions   *int   `json:"repetitions,omitempty"`
	WarmupFrames  *int   `json:"warmup_frames,omitempty"`
	MeasureFrames *int   `json:"measure_frames,omitempty"`
}

// File is the on-disk configuration. Every section is optional; absent
// sections keep their defaults.
type File struct {
	// Platform overrides the server model.
	Platform *platform.Spec `json:"platform,omitempty"`
	// Encoder overrides the encoder model.
	Encoder *hevc.Model `json:"encoder,omitempty"`
	// Sequences replaces the video catalog when non-empty.
	Sequences []video.Sequence `json:"sequences,omitempty"`
	// Experiment overrides protocol knobs.
	Experiment *ExperimentParams `json:"experiment,omitempty"`
}

// Load parses a configuration from r and validates every present section.
func Load(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: parse: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// LoadPath loads a configuration file from disk.
func LoadPath(path string) (*File, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer file.Close()
	return Load(file)
}

// Save writes the configuration as indented JSON.
func (f *File) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("config: save: %w", err)
	}
	return nil
}

// Validate checks every present section.
func (f *File) Validate() error {
	if f.Platform != nil {
		if err := f.Platform.Validate(); err != nil {
			return err
		}
	}
	if f.Encoder != nil {
		if err := f.Encoder.Validate(); err != nil {
			return err
		}
	}
	for i := range f.Sequences {
		if err := f.Sequences[i].Validate(); err != nil {
			return fmt.Errorf("config: sequence %d: %w", i, err)
		}
	}
	if e := f.Experiment; e != nil {
		if e.Repetitions != nil && *e.Repetitions < 1 {
			return fmt.Errorf("config: repetitions %d < 1", *e.Repetitions)
		}
		if e.WarmupFrames != nil && *e.WarmupFrames < 0 {
			return fmt.Errorf("config: warmup frames %d < 0", *e.WarmupFrames)
		}
		if e.MeasureFrames != nil && *e.MeasureFrames < 1 {
			return fmt.Errorf("config: measure frames %d < 1", *e.MeasureFrames)
		}
	}
	return nil
}

// Apply overlays the file's sections onto opts and returns the result.
func (f *File) Apply(opts experiments.Options) (experiments.Options, error) {
	if f.Platform != nil {
		opts.Spec = *f.Platform
	}
	if f.Encoder != nil {
		opts.Model = *f.Encoder
	}
	if len(f.Sequences) > 0 {
		seqs := make([]*video.Sequence, len(f.Sequences))
		for i := range f.Sequences {
			seqs[i] = &f.Sequences[i]
		}
		catalog, err := video.NewCatalog(seqs...)
		if err != nil {
			return opts, err
		}
		opts.Catalog = catalog
	}
	if e := f.Experiment; e != nil {
		if e.Seed != nil {
			opts.Seed = *e.Seed
		}
		if e.Repetitions != nil {
			opts.Repetitions = *e.Repetitions
		}
		if e.WarmupFrames != nil {
			opts.WarmupFrames = *e.WarmupFrames
		}
		if e.MeasureFrames != nil {
			opts.MeasureFrames = *e.MeasureFrames
		}
	}
	if err := opts.Validate(); err != nil {
		return opts, err
	}
	return opts, nil
}

// Default returns a File capturing the repository's default calibration —
// useful as a starting point for custom configurations (`-dump-config`).
func Default() *File {
	spec := platform.DefaultSpec()
	model := hevc.DefaultModel()
	var seqs []video.Sequence
	cat := video.DefaultCatalog()
	for _, name := range cat.Names() {
		s, err := cat.Get(name)
		if err == nil {
			seqs = append(seqs, *s)
		}
	}
	opts := experiments.DefaultOptions()
	return &File{
		Platform:  &spec,
		Encoder:   &model,
		Sequences: seqs,
		Experiment: &ExperimentParams{
			Seed:          &opts.Seed,
			Repetitions:   &opts.Repetitions,
			WarmupFrames:  &opts.WarmupFrames,
			MeasureFrames: &opts.MeasureFrames,
		},
	}
}
