package video

import (
	"fmt"
	"math"
	"math/rand"

	"mamut/internal/xrand"
)

// StatefulSource is a Source whose content process can be frozen and
// resumed bit-exactly — the playlist-cursor half of live session
// migration. SourceState returns the typed SourceState value;
// RestoreSourceState on a source built for the same sequence resumes the
// identical frame stream.
type StatefulSource interface {
	Source
	// SourceState freezes the stream position and content process.
	SourceState() (SourceState, error)
	// RestoreSourceState resumes from a SourceState value.
	RestoreSourceState(st SourceState) error
}

// NewStatefulGenerator returns a looping generator whose stream is
// bit-identical to NewGenerator(seq, xrand.New(seed)) but which
// additionally supports SourceState/RestoreSourceState. The generator
// owns its rng stream, which is what makes the state self-contained.
func NewStatefulGenerator(seq *Sequence, seed int64) (StatefulSource, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	src := xrand.NewSource(seed)
	g := &generator{seq: seq, rng: rand.New(src), src: src, firstFrame: true}
	g.startScene()
	return g, nil
}

// sourceFormatVersion is the current SourceState format.
// RestoreSourceState rejects a newer state instead of misinterpreting it.
const sourceFormatVersion = 1

// SourceState is the frozen content process of a generator. It is a
// plain value: a session hand-over inside the process passes it as is,
// and its JSON form (shortest-representation floats) round-trips it
// exactly when a session state leaves the process.
type SourceState struct {
	Version    int     `json:"format_version"`
	Sequence   string  `json:"sequence"`
	Index      int     `json:"index"`
	SceneLeft  int     `json:"scene_left"`
	SceneMean  float64 `json:"scene_mean"`
	Current    float64 `json:"current"`
	FirstFrame bool    `json:"first_frame"`
	RNG        uint64  `json:"rng_state"`
}

// SourceState implements StatefulSource. It errors when the generator was
// built with a caller-owned rng (NewGenerator), whose state is not
// reachable from here.
func (g *generator) SourceState() (SourceState, error) {
	if g.src == nil {
		return SourceState{}, fmt.Errorf("video: source for %s was built without snapshot support (use NewStatefulGenerator)", g.seq.Name)
	}
	return SourceState{
		Version:    sourceFormatVersion,
		Sequence:   g.seq.Name,
		Index:      g.index,
		SceneLeft:  g.sceneLeft,
		SceneMean:  g.sceneMean,
		Current:    g.current,
		FirstFrame: g.firstFrame,
		RNG:        g.src.State(),
	}, nil
}

// RestoreSourceState implements StatefulSource. A rejected state leaves
// the generator as it was.
func (g *generator) RestoreSourceState(st SourceState) error {
	if g.src == nil {
		return fmt.Errorf("video: source for %s was built without snapshot support (use NewStatefulGenerator)", g.seq.Name)
	}
	switch {
	case st.Version < 0 || st.Version > sourceFormatVersion:
		return fmt.Errorf("video: restore source state: format version %d not supported (current %d)", st.Version, sourceFormatVersion)
	case st.Sequence != g.seq.Name:
		return fmt.Errorf("video: restore source state: payload is for sequence %q, source plays %q", st.Sequence, g.seq.Name)
	case st.Index < 0 || st.SceneLeft < 0:
		return fmt.Errorf("video: restore source state: negative cursor (index %d, scene left %d)", st.Index, st.SceneLeft)
	case !isFiniteComplexity(st.SceneMean) || !isFiniteComplexity(st.Current):
		return fmt.Errorf("video: restore source state: complexity out of range (mean %g, current %g)", st.SceneMean, st.Current)
	}
	g.index = st.Index
	g.sceneLeft = st.SceneLeft
	g.sceneMean = st.SceneMean
	g.current = st.Current
	g.firstFrame = st.FirstFrame
	g.src.SetState(st.RNG)
	return nil
}

func isFiniteComplexity(c float64) bool {
	return !math.IsNaN(c) && !math.IsInf(c, 0) && c >= minComplexity && c <= maxComplexity
}
