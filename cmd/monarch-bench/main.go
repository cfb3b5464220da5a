// Command monarch-bench regenerates the paper's figures and tables.
//
// Each experiment runs the full methodology — every setup, model and
// seeded repetition — on the simulated Frontera node and prints the
// resulting charts, tables and shape checks. The -scale flag trades
// fidelity for time: 1.0 simulates the paper's full 100 GiB / 200 GiB
// datasets; the default 1/16 keeps a full sweep to a few minutes.
//
// Usage:
//
//	monarch-bench                      # run everything at scale 1/16
//	monarch-bench -exp fig3,io-ops    # selected experiments
//	monarch-bench -scale 1 -runs 7    # the paper's full methodology
//	monarch-bench -list               # show the experiment registry
//	monarch-bench -csv out/           # also dump tables as CSV
//	monarch-bench -capture t.bin      # capture an access trace of the
//	                                  # standard workload at -scale
//	                                  # (one binary encoding, whatever
//	                                  # the name; monarch-inspect trace
//	                                  # -events renders it as text)
//	monarch-bench -replay t.bin       # re-drive a captured trace
//	                                  # (-replay-mode faithful|live)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"monarch/internal/experiments"
	"monarch/internal/trace"
	"monarch/internal/trace/replay"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale      = flag.Float64("scale", 1.0/16, "dataset scale in (0,1]; 1 = the paper's sizes")
		runs       = flag.Int("runs", 7, "seeded repetitions per configuration (paper: 7)")
		epochs     = flag.Int("epochs", 3, "training epochs per run (paper: 3)")
		seed       = flag.Uint64("seed", 1, "base RNG seed")
		noNoise    = flag.Bool("no-interference", false, "disable the PFS interference model")
		csvDir     = flag.String("csv", "", "directory to also write tables as CSV")
		paramsIn   = flag.String("params", "", "JSON file overriding the calibrated parameters")
		paramsDump = flag.String("dump-params", "", "write the effective parameters as JSON and exit")

		capturePath = flag.String("capture", "", "capture the standard workload's access trace to this path and exit")
		traceSample = flag.Int("trace-sample", 0, "with -capture, keep 1-in-N plain read hits (<=1 keeps all)")
		replayPath  = flag.String("replay", "", "replay a captured access trace and exit")
		replayMode  = flag.String("replay-mode", "faithful", "replay strategy: faithful (re-enact + verify) or live (rebuild the stack)")
		replayWork  = flag.Int("replay-workers", 16, "replay worker processes")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %s\n%-22s paper: %s\n", e.ID, e.Title, "", e.Paper)
		}
		return
	}

	p := experiments.DefaultParams(*scale)
	p.Runs = *runs
	p.Epochs = *epochs
	p.BaseSeed = *seed
	p.UseInterference = !*noNoise
	if *paramsIn != "" {
		data, err := os.ReadFile(*paramsIn)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &p); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *paramsIn, err))
		}
	}
	if *paramsDump != "" {
		data, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*paramsDump, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote effective parameters to %s\n", *paramsDump)
		return
	}
	if *replayPath != "" {
		if err := runReplay(*replayPath, *replayMode, *replayWork, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *capturePath != "" {
		p.Runs = 1
		p.TraceSample = *traceSample
		start := time.Now()
		r, err := experiments.CaptureTrace(p, *capturePath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("captured %s/%s/%s at scale %g to %s (%d epochs, %d PFS data ops, %s)\n",
			r.Setup, r.Model, r.Dataset, p.Scale, *capturePath,
			len(r.PFSOpsPerEpoch), r.TotalPFSOps(), time.Since(start).Round(time.Millisecond))
		fmt.Printf("analyze with: monarch-inspect trace %s\n", *capturePath)
		return
	}
	// -capture is exempt: a trace of two epochs is a valid capture.
	if err := p.Validate(); err != nil {
		fatal(err)
	}
	p.Cache = experiments.NewCache()

	var selected []experiments.Experiment
	if *expFlag == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	failures := 0
	for _, e := range selected {
		fmt.Printf("==> %s — %s\n", e.ID, e.Title)
		fmt.Printf("    paper: %s\n\n", e.Paper)
		start := time.Now()
		o, err := e.Run(p)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		o.Render(os.Stdout)
		fmt.Printf("  (%d checks, %s)\n\n", len(o.Checks), time.Since(start).Round(time.Millisecond))
		failures += len(o.Failed())
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, e.ID, o); err != nil {
				fatal(err)
			}
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d shape check(s) failed", failures))
	}
}

// runReplay loads a captured trace and re-drives it. Faithful mode
// verifies the replay's statistics against the capture's trailer and
// fails the command on any mismatch.
func runReplay(path, mode string, workers int, seed uint64) error {
	t, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	opts := replay.Options{Workers: workers, Seed: seed}
	switch mode {
	case "faithful":
		opts.Mode = replay.Faithful
	case "live":
		opts.Mode = replay.Live
	default:
		return fmt.Errorf("unknown -replay-mode %q (want faithful or live)", mode)
	}
	rep, err := replay.Run(t, opts)
	if err != nil {
		return err
	}
	rep.RenderText(os.Stdout, t)
	if len(rep.Mismatches) > 0 {
		return fmt.Errorf("replay statistics diverge from the capture (%d counter(s))", len(rep.Mismatches))
	}
	return nil
}

func writeCSVs(dir, id string, o *experiments.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range o.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.csv", id, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "monarch-bench:", err)
	os.Exit(1)
}
