// Migration: drain a live transcoding server by handing its mid-stream
// sessions to another server, and watch them resume without losing a
// frame.
//
// Server A runs three sessions to t=2s — each mid-frame, with learner
// state, rng streams and energy accumulators in flight. A is then
// drained: every session is frozen with ExtractSession, serialised to a
// hash-stamped wire payload (what a real control plane would ship between
// hosts), decoded on server B and resumed with InjectSession under a
// 250 ms handoff stall. Occupancy moves from A to B, and every resumed
// session still transcodes its full frame budget — the stall is the only
// price of the move.
//
// The migration API is exact: the transcode package's tests pin that a
// resumed session continues the same stream where it stopped, and that
// its state survives the wire codec unchanged. The serve package builds
// on this primitive for fleet drains, hotspot rebalancing and
// autoscaling (see ServeConfig.Rebalance, .Autoscale and .Drain).
package main

import (
	"fmt"
	"log"

	"mamut/internal/baseline"
	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

const frameBudget = 240 // ~10 s per session at the 24 fps target

func newServer(seed int64) *transcode.Engine {
	eng, err := transcode.NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), seed)
	if err != nil {
		log.Fatal(err)
	}
	return eng
}

// addSession registers one migratable session: a stateful source (its rng
// cursor travels with the session) driven by the rule-based controller.
func addSession(eng *transcode.Engine, i int) int {
	res := video.HR
	if i%2 == 1 {
		res = video.LR
	}
	spec := eng.Server().Spec()
	seq := &video.Sequence{
		Name: fmt.Sprintf("stream-%d", i), Res: res, Frames: 600, FrameRate: 24,
		BaseComplexity: 1.0, Dynamism: 0.5, MeanSceneLen: 48,
	}
	src, err := video.NewStatefulGenerator(seq, 100+int64(i))
	if err != nil {
		log.Fatal(err)
	}
	initial := transcode.Settings{QP: 32, Threads: 4, FreqGHz: spec.Nearest(2.6)}
	ctrl, err := baseline.NewHeuristic(baseline.DefaultHeuristicConfig(res, spec, 6), initial)
	if err != nil {
		log.Fatal(err)
	}
	id, err := eng.AddSession(transcode.SessionConfig{
		Source:      src,
		Controller:  ctrl,
		Initial:     initial,
		FrameBudget: frameBudget,
		StartAtSec:  float64(i) * 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	return id
}

func main() {
	a, b := newServer(1), newServer(2)
	var ids []int
	for i := 0; i < 3; i++ {
		ids = append(ids, addSession(a, i))
	}

	// Let server A transcode for two simulated seconds: every session is
	// now mid-stream.
	if err := a.AdvanceTo(2.0); err != nil {
		log.Fatal(err)
	}
	if err := b.AdvanceTo(2.0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before drain: server A %d active, server B %d active\n",
		a.ActiveSessions(), b.ActiveSessions())

	// Drain A: freeze, ship, resume on B — with a 250 ms handoff stall
	// charged to each moved session's in-flight frame.
	const stallSec = 0.25
	fmt.Println("\ndraining server A:")
	for i, id := range ids {
		st, err := a.ExtractSession(id)
		if err != nil {
			log.Fatal(err)
		}
		st.StallSec = stallSec
		wire, err := transcode.EncodeSessionState(st)
		if err != nil {
			log.Fatal(err)
		}
		rt, err := transcode.DecodeSessionState(wire)
		if err != nil {
			log.Fatal(err)
		}
		// Fresh shells on the destination; InjectSession restores their
		// mid-stream state from the payload (and rejects a sequence that
		// does not match the one the state was extracted over).
		seq := &video.Sequence{
			Name: fmt.Sprintf("stream-%d", i), Res: st.Res, Frames: 600, FrameRate: 24,
			BaseComplexity: 1.0, Dynamism: 0.5, MeanSceneLen: 48,
		}
		src, err := video.NewStatefulGenerator(seq, 0)
		if err != nil {
			log.Fatal(err)
		}
		spec := b.Server().Spec()
		initial := transcode.Settings{QP: 32, Threads: 4, FreqGHz: spec.Nearest(2.6)}
		ctrl, err := baseline.NewHeuristic(baseline.DefaultHeuristicConfig(st.Res, spec, 6), initial)
		if err != nil {
			log.Fatal(err)
		}
		newID, err := b.InjectSession(src, ctrl, rt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  session %d (%s, frame %d/%d) -> server B as session %d (%d-byte payload)\n",
			id, st.Res, st.FrameIdx, frameBudget, newID, len(wire))
	}
	fmt.Printf("\nafter drain: server A %d active, server B %d active\n",
		a.ActiveSessions(), b.ActiveSessions())

	// Server A is empty and can be decommissioned; server B finishes the
	// resumed sessions.
	res, err := b.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nresumed sessions on server B:")
	for _, s := range res.Sessions {
		fmt.Printf("  session %d (%s): %d/%d frames, avg %.1f fps, %.1f dB — completed after migration\n",
			s.ID, s.Res, s.Frames, frameBudget, s.AvgFPS, s.AvgPSNRdB)
	}
}
