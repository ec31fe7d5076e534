// Command mamut-experiments regenerates every table and figure of the
// paper's evaluation from the simulated testbed.
//
// Usage:
//
//	mamut-experiments -exp all -out results/
//	mamut-experiments -exp fig4 -quick
//	mamut-experiments -exp table2 -seed 3 -reps 5
//
// Experiments: fig2, fig4, fig5, table1, table2, learntime, ablation, all.
// Each experiment prints its table(s) to stdout and, when -out is set,
// writes CSV and SVG artifacts into the output directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mamut/internal/config"
	"mamut/internal/experiments"
	"mamut/internal/metrics"
	"mamut/internal/plot"
	"mamut/internal/tables"
	"mamut/internal/transcode"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig2|fig4|fig5|table1|table2|learntime|ablation|all")
		out      = flag.String("out", "", "directory for CSV/SVG artifacts (optional)")
		quick    = flag.Bool("quick", false, "reduced repetitions and windows (faster, less converged)")
		seed     = flag.Int64("seed", 1, "experiment seed")
		reps     = flag.Int("reps", 0, "override repetitions (0 = default)")
		workers  = flag.Int("workers", 0, "parallel worker goroutines (0 = one per CPU, 1 = serial); results are identical for any value")
		progress = flag.Bool("progress", false, "print per-unit progress to stderr")
		cfgPath  = flag.String("config", "", "JSON configuration file (see -dump-config)")
		dumpCfg  = flag.Bool("dump-config", false, "print the default configuration as JSON and exit")
	)
	flag.Parse()

	if *dumpCfg {
		if err := config.Default().Save(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	opts.Seed = *seed
	if *reps > 0 {
		opts.Repetitions = *reps
	}
	if *cfgPath != "" {
		f, err := config.LoadPath(*cfgPath)
		if err != nil {
			fatal(err)
		}
		opts, err = f.Apply(opts)
		if err != nil {
			fatal(err)
		}
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d must be >= 0", *workers))
	}
	opts.Workers = *workers
	if *progress {
		opts.Progress = func(done, total int, label string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, label)
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	run := func(name string, f func() error) {
		t0 := time.Now()
		fmt.Printf("== %s ==\n", name)
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("(%s done in %.1fs)\n\n", name, time.Since(t0).Seconds())
	}

	all := *exp == "all"
	selected := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		selected[strings.TrimSpace(e)] = true
	}
	want := func(name string) bool { return all || selected[name] }

	var scenarioI []experiments.WorkloadResult
	if want("fig2") {
		run("fig2", func() error { return runFig2(opts, *out) })
	}
	if want("fig4") || want("table1") {
		run("fig4 (Scenario I)", func() error {
			var err error
			scenarioI, err = runFig4(opts, *out)
			return err
		})
	}
	if want("table1") {
		run("table1", func() error { return runTableI(scenarioI, *out) })
	}
	if want("fig5") {
		run("fig5", func() error { return runFig5(opts, *out) })
	}
	if want("table2") {
		run("table2 (Scenario II)", func() error { return runTableII(opts, *out) })
	}
	if want("learntime") {
		run("learntime", func() error { return runLearnTime(opts) })
	}
	if want("ablation") {
		run("ablation", func() error { return runAblation(opts) })
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mamut-experiments:", err)
	os.Exit(1)
}

func writeFile(dir, name string, f func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	file, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer file.Close()
	return f(file)
}

func runFig2(opts experiments.Options, out string) error {
	points, err := experiments.Fig2Sweep(opts)
	if err != nil {
		return err
	}
	tb := tables.New("Figure 2: RD curves, power and throughput (1080p ultrafast @ 3.2 GHz)",
		"threads", "QP", "FPS", "power_W", "PSNR_dB", "bandwidth_MBps")
	for _, p := range points {
		tb.MustAddRow(fmt.Sprint(p.Threads), fmt.Sprint(p.QP), tables.F(p.FPS, 1),
			tables.F(p.PowerW, 1), tables.F(p.PSNRdB, 1), tables.F(p.BandwidthMBps, 3))
	}
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	if err := writeFile(out, "fig2.csv", tb.WriteCSV); err != nil {
		return err
	}
	// RD chart: PSNR vs bandwidth, one series per thread count.
	rd := &plot.Chart{Title: "Fig. 2: RD curves", XLabel: "Bandwidth (MBytes/s)", YLabel: "PSNR (dB)"}
	pw := &plot.Chart{Title: "Fig. 2: power vs throughput", XLabel: "FPS", YLabel: "Power (Watts)"}
	for _, th := range experiments.Fig2Threads {
		var rdS, pwS plot.Series
		rdS.Name = fmt.Sprintf("%d threads", th)
		pwS.Name = rdS.Name
		for _, p := range points {
			if p.Threads != th {
				continue
			}
			rdS.X = append(rdS.X, p.BandwidthMBps)
			rdS.Y = append(rdS.Y, p.PSNRdB)
			pwS.X = append(pwS.X, p.FPS)
			pwS.Y = append(pwS.Y, p.PowerW)
		}
		rd.Series = append(rd.Series, rdS)
		pw.Series = append(pw.Series, pwS)
	}
	if err := writeFile(out, "fig2_rd.svg", rd.WriteSVG); err != nil {
		return err
	}
	return writeFile(out, "fig2_power.svg", pw.WriteSVG)
}

func scenarioTable(title string, results []experiments.WorkloadResult) *tables.Table {
	tb := tables.New(title,
		"workload", "approach", "watts", "Nth", "FPS", "delta_pct", "stall_pct", "PSNR_dB", "QP", "freq_GHz")
	for _, wr := range results {
		for _, r := range wr.ByApproach {
			tb.MustAddRow(wr.Spec.Name, string(r.Approach), tables.F(r.Watts, 1),
				tables.F(r.Nth, 1), tables.F(r.FPS, 1), tables.F(r.DeltaPct, 1),
				tables.F(r.StallPct, 1), tables.F(r.PSNRdB, 1), tables.F(r.QP, 1), tables.F(r.FreqGHz, 2))
		}
	}
	return tb
}

func runFig4(opts experiments.Options, out string) ([]experiments.WorkloadResult, error) {
	results, err := experiments.RunScenario(experiments.ScenarioIWorkloads(), experiments.ScenarioI, opts)
	if err != nil {
		return nil, err
	}
	tb := scenarioTable("Figure 4: Scenario I (QoS violations and power per workload)", results)
	if err := tb.Render(os.Stdout); err != nil {
		return nil, err
	}
	if err := writeFile(out, "fig4.csv", tb.WriteCSV); err != nil {
		return nil, err
	}
	// Two charts: delta and power across workloads, one series per
	// approach (workloads on x as their index).
	dc := &plot.Chart{Title: "Fig. 4: QoS violations", XLabel: "workload index (1HR..5HR, 1LR..8LR)", YLabel: "Delta (%)"}
	pc := &plot.Chart{Title: "Fig. 4: power", XLabel: "workload index (1HR..5HR, 1LR..8LR)", YLabel: "Power (Watts)"}
	for _, a := range experiments.AllApproaches {
		var ds, ps plot.Series
		ds.Name, ps.Name = string(a), string(a)
		for i, wr := range results {
			if r, ok := wr.Get(a); ok {
				ds.X = append(ds.X, float64(i))
				ds.Y = append(ds.Y, r.DeltaPct)
				ps.X = append(ps.X, float64(i))
				ps.Y = append(ps.Y, r.Watts)
			}
		}
		dc.Series = append(dc.Series, ds)
		pc.Series = append(pc.Series, ps)
	}
	if err := writeFile(out, "fig4_delta.svg", dc.WriteSVG); err != nil {
		return nil, err
	}
	if err := writeFile(out, "fig4_power.svg", pc.WriteSVG); err != nil {
		return nil, err
	}
	return results, nil
}

func runTableI(scenarioI []experiments.WorkloadResult, out string) error {
	if scenarioI == nil {
		return fmt.Errorf("table1 requires fig4 results (run with -exp fig4,table1 or all)")
	}
	rows, err := experiments.TableI(scenarioI)
	if err != nil {
		return err
	}
	tb := tables.New("Table I: number of threads and frequency used in average",
		"approach", "HR_Nth", "HR_freq_GHz", "LR_Nth", "LR_freq_GHz")
	for _, r := range rows {
		tb.MustAddRow(string(r.Approach), tables.F(r.HRNth, 1), tables.F(r.HRFreq, 2),
			tables.F(r.LRNth, 1), tables.F(r.LRFreq, 2))
	}
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	return writeFile(out, "table1.csv", tb.WriteCSV)
}

func runFig5(opts experiments.Options, out string) error {
	res, err := experiments.Fig5Trace(opts, 500)
	if err != nil {
		return err
	}
	sum := res.Summary
	fmt.Printf("500-frame MAMUT trace after warm-up: FPS %.1f, PSNR %.1f dB, QP %.1f, threads %.1f, freq %.2f GHz, delta %.1f%%\n",
		sum.AvgFPS, sum.AvgPSNRdB, sum.AvgQP, sum.AvgThreads, sum.AvgFreqGHz, sum.ViolationPct)
	if err := writeFile(out, "fig5.csv", func(w io.Writer) error {
		return metrics.WriteTraceCSV(w, res.Trace)
	}); err != nil {
		return err
	}
	mk := func(title, ylabel string, pick func(transcode.Observation) float64) *plot.Chart {
		s := plot.Series{Name: ylabel}
		for i, o := range res.Trace {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, pick(o))
		}
		return &plot.Chart{Title: title, XLabel: "frame", YLabel: ylabel, Series: []plot.Series{s}}
	}
	charts := map[string]*plot.Chart{
		"fig5_fps.svg":     mk("Fig. 5: throughput", "FPS", func(o transcode.Observation) float64 { return o.FPS }),
		"fig5_psnr.svg":    mk("Fig. 5: quality", "PSNR (dB)", func(o transcode.Observation) float64 { return o.PSNRdB }),
		"fig5_qp.svg":      mk("Fig. 5: QP", "QP", func(o transcode.Observation) float64 { return float64(o.Settings.QP) }),
		"fig5_threads.svg": mk("Fig. 5: threads", "threads", func(o transcode.Observation) float64 { return float64(o.Settings.Threads) }),
		"fig5_freq.svg":    mk("Fig. 5: frequency", "GHz", func(o transcode.Observation) float64 { return o.Settings.FreqGHz }),
	}
	for name, c := range charts {
		if err := writeFile(out, name, c.WriteSVG); err != nil {
			return err
		}
	}
	return nil
}

func runTableII(opts experiments.Options, out string) error {
	results, err := experiments.RunScenario(experiments.ScenarioIIWorkloads(), experiments.ScenarioII, opts)
	if err != nil {
		return err
	}
	tb := scenarioTable("Table II: Scenario II average results", results)
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	return writeFile(out, "table2.csv", tb.WriteCSV)
}

func runLearnTime(opts experiments.Options) error {
	res, err := experiments.LearningTime(opts, 120000)
	if err != nil {
		return err
	}
	fmt.Printf("MAMUT per-agent first exploitation frame: QP=%d threads=%d DVFS=%d (all: %d)\n",
		res.MAMUTFirstExploit[0], res.MAMUTFirstExploit[1], res.MAMUTFirstExploit[2], res.MAMUTAllExploit)
	fmt.Printf("mono-agent (%d joint actions) first exploitation frame: %d (ratio %.1fx)\n",
		res.MonoActions, res.MonoFirstExploit, res.Ratio)
	fmt.Printf("mono-agent (%d joint actions) first exploitation frame: %d (ratio %.1fx)\n",
		res.MonoWideActions, res.MonoWideFirstExploit, res.WideRatio)
	return nil
}

func runAblation(opts experiments.Options) error {
	results, err := experiments.RunAblations(experiments.WorkloadSpec{}, opts, nil)
	if err != nil {
		return err
	}
	tb := tables.New("Ablations (2HR1LR workload)", "variant", "delta_pct", "watts", "FPS", "PSNR_dB")
	for _, r := range results {
		tb.MustAddRow(r.Name, tables.F(r.DeltaPct, 1), tables.F(r.Watts, 1),
			tables.F(r.FPS, 1), tables.F(r.PSNRdB, 1))
	}
	return tb.Render(os.Stdout)
}
