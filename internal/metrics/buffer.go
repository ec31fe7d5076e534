package metrics

import "fmt"

// Playout counts delivery-side stalls under a playout buffer, the
// mechanism paper SIII-D.a invokes to justify rewarding FPS above the
// target: "spare encoded frames can be buffered. Buffered frames can be
// used to compensate the overall framerate if, at some points, FPS
// temporarily drops below the target."
//
// The model: the viewer consumes one frame every 1/target seconds once
// playout starts, which is when the last pre-roll frame is transcoded;
// frames finished early wait in the sender's buffer. A frame is a
// *stall* (buffered violation) if its playout deadline passes before it
// has been transcoded. The pre-roll frames never stall (their deadline is
// the pre-roll's end, which cannot precede them), so each frame is judged
// as it completes and a window shorter than the pre-roll has no stalls.
// The buffer is unbounded, the natural reading for transcode-ahead
// delivery; encoder back-pressure from a bounded buffer would change the
// engine's timing and is not modelled.
type Playout struct {
	period  float64
	preroll int
	start   float64 // completion time of the last pre-roll frame

	// Frames counts the frames fed; Stalls those delivered after their
	// playout deadline.
	Frames, Stalls int
}

// NewPlayout returns a stall counter for playout at targetFPS after a
// pre-roll of startupFrames (at least 1).
func NewPlayout(targetFPS float64, startupFrames int) (Playout, error) {
	if !(targetFPS > 0) {
		return Playout{}, fmt.Errorf("metrics: target FPS %g invalid", targetFPS)
	}
	if startupFrames < 1 {
		return Playout{}, fmt.Errorf("metrics: startup frames %d < 1", startupFrames)
	}
	return Playout{period: 1 / targetFPS, preroll: startupFrames}, nil
}

// Add feeds the completion time of one session's next frame. Frames
// must be fed in frame order, as the engine emits them.
func (p *Playout) Add(t float64) {
	i := p.Frames
	p.Frames++
	if i == p.preroll-1 {
		p.start = t
	} else if i >= p.preroll {
		deadline := p.start + float64(i-(p.preroll-1))*p.period
		if late := t - deadline; late > 1e-9 {
			p.Stalls++
		}
	}
}

// StallPct returns Stalls as a percentage of the frames fed (0 before
// the first).
func (p *Playout) StallPct() float64 {
	if p.Frames == 0 {
		return 0
	}
	return 100 * float64(p.Stalls) / float64(p.Frames)
}
