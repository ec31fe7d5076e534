// Quickstart: transcode one 1080p stream under MAMUT control and watch the
// multi-agent controller learn to hold the 24 FPS real-time target.
package main

import (
	"fmt"
	"log"

	"mamut"
)

func main() {
	sim, err := mamut.NewSimulation(mamut.SimulationConfig{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// One user requests the Kimono sequence at 1080p. MAMUT's three agents
	// (QP, threads, DVFS) start untrained and learn online.
	const frames = 24000
	if err := sim.AddStream(mamut.StreamConfig{
		Sequence: "Kimono",
		Approach: mamut.ApproachMAMUT,
		Frames:   frames,
	}); err != nil {
		log.Fatal(err)
	}

	// Watch every frame as it completes: count QoS violations per window
	// for the learning curve, and remember the last frame's settings.
	const window = 3000
	var viol [frames / window]int
	var last mamut.Observation
	sim.OnFrame(func(obs mamut.Observation) {
		if obs.FPS < mamut.TargetFPS {
			viol[obs.FrameIndex/window]++
		}
		last = obs
	})

	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	stream := res.Sessions[0]
	fmt.Printf("transcoded %d frames in %.1f simulated seconds (avg %.1f W)\n",
		stream.Frames, res.DurationSec, res.AvgPowerW)
	fmt.Printf("whole run: FPS %.1f, PSNR %.1f dB, QoS violations %.1f%%\n\n",
		stream.AvgFPS, stream.AvgPSNRdB, stream.ViolationPct)

	// The learning curve: violations melt away as the agents leave the
	// exploration phase (paper SIV).
	fmt.Println("learning curve (QoS violations per 3000-frame window):")
	for w, v := range viol {
		bar := ""
		for i := 0; i < v*50/window; i++ {
			bar += "#"
		}
		fmt.Printf("  frames %5d-%5d: %5.1f%% %s\n",
			w*window, (w+1)*window, 100*float64(v)/window, bar)
	}

	// Where did the controller end up? (paper Fig. 5: many threads, QP in
	// the mid-30s, frequency doing the fine regulation)
	fmt.Printf("\nfinal operating point: QP %d, %d threads, %.1f GHz\n",
		last.Settings.QP, last.Settings.Threads, last.Settings.FreqGHz)
}
