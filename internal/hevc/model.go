// Package hevc provides an analytic model of an HEVC software encoder in
// the style of Kvazaar, the encoder used by the paper.
//
// The real system measures four outputs per frame — throughput (FPS), PSNR,
// bitrate, and (via the platform) power — as functions of the three knobs
// MAMUT controls (QP, WPP threads, DVFS frequency) plus the video content.
// This package reproduces those response surfaces:
//
//   - encode work (cycles/frame) grows with resolution and content
//     complexity, and shrinks as QP rises (less residual/entropy coding);
//   - WPP parallel speedup follows the wavefront ramp bounded by the number
//     of CTU rows and saturates (12 threads for 1080p, 5 for 832x480,
//     matching paper SV-A);
//   - PSNR falls roughly linearly with QP within the 22-37 working range;
//   - bits/frame halve roughly every 6 QP steps (the classic RD rule).
//
// Constants are calibrated against the operating points published in the
// paper's Fig. 2 and Tables I-II; README "Paper claims and their
// verdicts" lists what they reproduce.
package hevc

import (
	"fmt"
	"math"
	"math/rand"

	"mamut/internal/video"
)

// Preset selects the encoder effort level. The paper encodes HR videos with
// Kvazaar's ultrafast preset and LR videos with the slow preset (SV-A).
type Preset int

const (
	// Ultrafast is the lowest-effort preset (used for HR/1080p streams).
	Ultrafast Preset = iota
	// Slow is a high-effort preset (used for LR/832x480 streams).
	Slow
)

// String returns the Kvazaar-style preset name.
func (p Preset) String() string {
	switch p {
	case Ultrafast:
		return "ultrafast"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("Preset(%d)", int(p))
	}
}

// PresetFor returns the preset the paper assigns to a resolution class.
func PresetFor(r video.Resolution) Preset {
	if r == video.HR {
		return Ultrafast
	}
	return Slow
}

// QP bounds of the HEVC standard. The MAMUT action set uses a subset.
const (
	MinQP = 0
	MaxQP = 51
)

// Model holds the calibration constants of the encoder response surfaces.
// The zero value is unusable; start from DefaultModel.
type Model struct {
	// CyclesPerPixel is the single-thread encode cost in cycles per luma
	// sample at the reference QP (37) and complexity 1.0, per preset.
	CyclesPerPixelUltrafast float64
	CyclesPerPixelSlow      float64
	// DecodeCyclesPerPixel is the decode-side cost of the transcoder. The
	// paper (SI) cites encoding as ~100x more complex than decoding.
	DecodeCyclesPerPixel float64
	// WorkQPSlope is the relative extra work per QP step below the
	// reference QP 37 (lower QP => more residual data => more work).
	WorkQPSlope float64
	// SyncOverheadPerThread is the per-extra-thread WPP synchronisation
	// loss applied on top of the wavefront ramp.
	SyncOverheadPerThread float64
	// MaxUsefulThreadsHR/LR are the saturation points beyond which extra
	// threads add no throughput (12 and 5 in the paper's platform).
	MaxUsefulThreadsHR int
	MaxUsefulThreadsLR int

	// PSNRAtQP22 and PSNRQPSlope define quality: PSNR = PSNRAtQP22 -
	// PSNRQPSlope*(QP-22), per preset (slow presets achieve higher
	// quality at equal QP).
	PSNRAtQP22Ultrafast float64
	PSNRAtQP22Slow      float64
	PSNRQPSlope         float64
	// PSNRComplexitySlope lowers PSNR on complex frames at equal QP.
	PSNRComplexitySlope float64
	// PSNRNoiseDB is the per-frame measurement jitter (std dev).
	PSNRNoiseDB float64

	// BitsPerPixelAtQP22 anchors the rate model per preset; QPHalving is
	// the number of QP steps that halves the bitrate.
	BitsPerPixelAtQP22Ultrafast float64
	BitsPerPixelAtQP22Slow      float64
	QPHalving                   float64
	// BitsNoiseFrac is the per-frame relative jitter of the frame size.
	BitsNoiseFrac float64
}

// DefaultModel returns constants calibrated to the paper's published
// operating points.
func DefaultModel() Model {
	return Model{
		CyclesPerPixelUltrafast: 250,
		CyclesPerPixelSlow:      650,
		DecodeCyclesPerPixel:    3,
		WorkQPSlope:             0.04,
		SyncOverheadPerThread:   0.012,
		MaxUsefulThreadsHR:      12,
		MaxUsefulThreadsLR:      5,

		PSNRAtQP22Ultrafast: 40.0,
		PSNRAtQP22Slow:      43.0,
		PSNRQPSlope:         0.53,
		PSNRComplexitySlope: 1.5,
		PSNRNoiseDB:         0.25,

		BitsPerPixelAtQP22Ultrafast: 0.19,
		BitsPerPixelAtQP22Slow:      0.14,
		QPHalving:                   6.0,
		BitsNoiseFrac:               0.04,
	}
}

// Validate reports whether the model constants are physically sensible.
func (m *Model) Validate() error {
	pos := []struct {
		name string
		v    float64
	}{
		{"CyclesPerPixelUltrafast", m.CyclesPerPixelUltrafast},
		{"CyclesPerPixelSlow", m.CyclesPerPixelSlow},
		{"PSNRAtQP22Ultrafast", m.PSNRAtQP22Ultrafast},
		{"PSNRAtQP22Slow", m.PSNRAtQP22Slow},
		{"PSNRQPSlope", m.PSNRQPSlope},
		{"BitsPerPixelAtQP22Ultrafast", m.BitsPerPixelAtQP22Ultrafast},
		{"BitsPerPixelAtQP22Slow", m.BitsPerPixelAtQP22Slow},
		{"QPHalving", m.QPHalving},
	}
	for _, p := range pos {
		if p.v <= 0 {
			return fmt.Errorf("hevc: model field %s must be positive, got %g", p.name, p.v)
		}
	}
	if m.DecodeCyclesPerPixel < 0 || m.WorkQPSlope < 0 || m.SyncOverheadPerThread < 0 ||
		m.PSNRComplexitySlope < 0 || m.PSNRNoiseDB < 0 || m.BitsNoiseFrac < 0 {
		return fmt.Errorf("hevc: model has negative noise/slope field")
	}
	if m.MaxUsefulThreadsHR < 1 || m.MaxUsefulThreadsLR < 1 {
		return fmt.Errorf("hevc: max useful threads must be >= 1")
	}
	return nil
}

// MaxUsefulThreads returns the thread saturation point for a resolution.
func (m *Model) MaxUsefulThreads(r video.Resolution) int {
	if r == video.HR {
		return m.MaxUsefulThreadsHR
	}
	return m.MaxUsefulThreadsLR
}

// Encoder models one encoding (strictly: transcoding) process for a stream
// of a fixed resolution class and preset. A nil rng disables measurement
// noise, which the characterisation sweeps use to get clean curves.
type Encoder struct {
	res    video.Resolution
	preset Preset
	model  Model
	rng    *rand.Rand
}

// NewEncoder builds an encoder model for one stream.
func NewEncoder(res video.Resolution, preset Preset, model Model, rng *rand.Rand) (*Encoder, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if preset != Ultrafast && preset != Slow {
		return nil, fmt.Errorf("hevc: unknown preset %d", int(preset))
	}
	return &Encoder{res: res, preset: preset, model: model, rng: rng}, nil
}

// Res returns the stream's resolution class.
func (e *Encoder) Res() video.Resolution { return e.res }

// Preset returns the encoder preset.
func (e *Encoder) Preset() Preset { return e.preset }

// Model returns the calibration constants in use.
func (e *Encoder) Model() Model { return e.model }

// cyclesPerPixel returns the preset's single-thread encode cost anchor.
func (e *Encoder) cyclesPerPixel() float64 {
	if e.preset == Ultrafast {
		return e.model.CyclesPerPixelUltrafast
	}
	return e.model.CyclesPerPixelSlow
}

// workQPFactor scales encode work by QP: the reference is QP 37 (factor
// 1.0); each QP step below it adds WorkQPSlope of work, and QPs above it
// save a little, floored so work never vanishes.
func (e *Encoder) workQPFactor(qp int) float64 {
	f := 1 + e.model.WorkQPSlope*float64(37-qp)
	if f < 0.5 {
		f = 0.5
	}
	return f
}

// FrameWork returns the total compute work for transcoding one frame, in
// CPU cycles at one thread: decode cost plus QP- and content-dependent
// encode cost.
func (e *Encoder) FrameWork(qp int, complexity float64) (float64, error) {
	if qp < MinQP || qp > MaxQP {
		return 0, fmt.Errorf("hevc: QP %d outside [%d,%d]", qp, MinQP, MaxQP)
	}
	if complexity <= 0 {
		return 0, fmt.Errorf("hevc: non-positive complexity %g", complexity)
	}
	px := float64(e.res.Pixels())
	encode := px * e.cyclesPerPixel() * e.workQPFactor(qp) * complexity
	decode := px * e.model.DecodeCyclesPerPixel
	return encode + decode, nil
}

// Speedup returns the WPP parallel speedup of n threads for this stream:
// the wavefront ramp n*R/(R+n-1) for R CTU rows, degraded by per-thread
// synchronisation overhead, with threads beyond the saturation point
// contributing nothing. Speedup(1) == 1 by construction.
func (e *Encoder) Speedup(n int) float64 {
	if n < 1 {
		return 0
	}
	if maxN := e.model.MaxUsefulThreads(e.res); n > maxN {
		n = maxN
	}
	rows := float64(e.res.CTURows())
	nf := float64(n)
	ramp := nf * rows / (rows + nf - 1)
	sync := 1 + e.model.SyncOverheadPerThread*(nf-1)
	return ramp / sync
}

// FrameQuality returns the output PSNR (dB) and compressed size (bits) of a
// frame encoded at the given QP with the given content complexity. With a
// nil rng the result is deterministic.
func (e *Encoder) FrameQuality(qp int, complexity float64) (psnrDB, bits float64, err error) {
	if qp < MinQP || qp > MaxQP {
		return 0, 0, fmt.Errorf("hevc: QP %d outside [%d,%d]", qp, MinQP, MaxQP)
	}
	if complexity <= 0 {
		return 0, 0, fmt.Errorf("hevc: non-positive complexity %g", complexity)
	}
	anchor := e.model.PSNRAtQP22Ultrafast
	bpp22 := e.model.BitsPerPixelAtQP22Ultrafast
	if e.preset == Slow {
		anchor = e.model.PSNRAtQP22Slow
		bpp22 = e.model.BitsPerPixelAtQP22Slow
	}
	psnrDB = anchor - e.model.PSNRQPSlope*float64(qp-22) - e.model.PSNRComplexitySlope*(complexity-1)
	bpp := bpp22 * math.Exp2(-float64(qp-22)/e.model.QPHalving) * complexity
	bits = bpp * float64(e.res.Pixels())
	if e.rng != nil {
		psnrDB += e.model.PSNRNoiseDB * e.rng.NormFloat64()
		bits *= 1 + e.model.BitsNoiseFrac*e.rng.NormFloat64()
		if bits < 1 {
			bits = 1
		}
	}
	return psnrDB, bits, nil
}

// EncodeSeconds returns the wall time to transcode one frame at the given
// settings on an otherwise idle machine (no contention): work divided by
// the parallel service rate at the given core frequency.
func (e *Encoder) EncodeSeconds(qp, threads int, freqGHz, complexity float64) (float64, error) {
	if threads < 1 {
		return 0, fmt.Errorf("hevc: threads %d < 1", threads)
	}
	if freqGHz <= 0 {
		return 0, fmt.Errorf("hevc: non-positive frequency %g", freqGHz)
	}
	work, err := e.FrameWork(qp, complexity)
	if err != nil {
		return 0, err
	}
	rate := freqGHz * 1e9 * e.Speedup(threads)
	return work / rate, nil
}
