package video

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// frames draws the next n frames of src.
func frames(src Source, n int) []Frame {
	out := make([]Frame, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

// TestSourceStateRestore: a state taken mid-scene resumes the identical
// frame stream on a fresh source, and every state RestoreSourceState
// rejects leaves the generator unchanged — its next 50 frames equal an
// untouched twin's — as does restoring into a source built without
// snapshot support.
func TestSourceStateRestore(t *testing.T) {
	seq := &Sequence{
		Name: "state", Res: HR, Frames: 600, FrameRate: 24,
		BaseComplexity: 1.0, Dynamism: 0.5, MeanSceneLen: 48,
	}
	build := func(skip int) StatefulSource {
		t.Helper()
		src, err := NewStatefulGenerator(seq, 9)
		if err != nil {
			t.Fatal(err)
		}
		frames(src, skip)
		return src
	}

	live := build(30)
	valid, err := live.SourceState()
	if err != nil {
		t.Fatal(err)
	}
	if valid.SceneLeft == 0 || valid.FirstFrame || valid.Index != 30 {
		t.Fatalf("state is not mid-scene: %+v", valid)
	}
	resumed := build(0)
	if err := resumed.RestoreSourceState(valid); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(frames(resumed, 50), frames(live, 50)) {
		t.Fatal("restored source does not resume the identical frame stream")
	}

	for _, c := range []struct {
		name string
		edit func(*SourceState)
		want string
	}{
		{"newer version", func(s *SourceState) { s.Version = sourceFormatVersion + 1 }, "format version"},
		{"negative version", func(s *SourceState) { s.Version = -1 }, "format version"},
		{"other sequence", func(s *SourceState) { s.Sequence = "other" }, "payload is for sequence"},
		{"negative index", func(s *SourceState) { s.Index = -1 }, "negative cursor"},
		{"negative scene left", func(s *SourceState) { s.SceneLeft = -1 }, "negative cursor"},
		{"NaN scene mean", func(s *SourceState) { s.SceneMean = math.NaN() }, "complexity out of range"},
		{"infinite current", func(s *SourceState) { s.Current = math.Inf(1) }, "complexity out of range"},
		{"current above range", func(s *SourceState) { s.Current = maxComplexity * 2 }, "complexity out of range"},
		{"scene mean below range", func(s *SourceState) { s.SceneMean = minComplexity / 2 }, "complexity out of range"},
	} {
		bad := valid
		c.edit(&bad)
		src, twin := build(3), build(3)
		if err := src.RestoreSourceState(bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore error %v, want one mentioning %q", c.name, err, c.want)
		}
		if !slices.Equal(frames(src, 50), frames(twin, 50)) {
			t.Errorf("%s: rejected restore changed the frame stream", c.name)
		}
	}

	plain := func() Source {
		t.Helper()
		src, err := NewGenerator(seq, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	src, twin := plain(), plain()
	ps := src.(StatefulSource)
	const want = "without snapshot support"
	if _, err := ps.SourceState(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("snapshot of a plain generator: %v, want one mentioning %q", err, want)
	}
	if err := ps.RestoreSourceState(valid); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("restore into a plain generator: %v, want one mentioning %q", err, want)
	}
	if !slices.Equal(frames(src, 50), frames(twin, 50)) {
		t.Error("rejected restore changed a plain generator's frame stream")
	}
}
