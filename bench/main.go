// Command monarch-ledger is the repository's benchmark: the real stack
// (core.ReadAt/ReadView/WriteAt over an OSFS tier 0, a throttled OSFS
// "PFS", peernet over loopback TCP, the write journal) driven by a
// TFRecord-shaped loader and a checkpointing trainer, in wall-clock
// time. See README.md in this directory.
//
//	monarch-ledger --workload fit_epochs --seed 1 --seconds 25 --trace 0
//	monarch-ledger --workload all -quick
//	monarch-ledger -compare before.jsonl after.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// stuckAfter is how long past its window a run may take to verify and
// tear down (seconds, normally) before it is taken for hung.
const stuckAfter = 90 * time.Second

func run(args []string) int {
	fs := flag.NewFlagSet("monarch-ledger", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "drives every shuffle, shard choice and checkpoint byte")
	seconds := fs.Int("seconds", 25, "length of the measured part of one run")
	trace := fs.Int("trace", 0, "1 installs the timing shims and reports the per-layer metrics")
	quick := fs.Bool("quick", false, "tiny sizes and minimum counts only (the smoke test)")
	out := fs.String("out", "", "append one JSON record per run to this file, for -compare")
	spanOut := fs.String("trace-out", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.csv.gz)")
	scratch := fs.String("scratch", ".bench_build", "directory the run works in; it leaves nothing but the span file there")
	compare := fs.Bool("compare", false, "compare two -out files: monarch-ledger -compare a.jsonl b.jsonl")
	ledger := fs.String("benchmark", "BENCHMARK.json", "where -compare reads the bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: monarch-ledger -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, *ledger, fs.Arg(0), fs.Arg(1))
	}

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	sz, window := fullSizes, time.Duration(*seconds)*time.Second
	if *quick {
		sz, window = quickSizes, 0
	}
	env := environment()
	code := 0
	// A run that was killed left its directory behind; runs do not share
	// a scratch directory, so whatever is there is dead.
	stale, _ := filepath.Glob(filepath.Join(*scratch, "run-*"))
	for _, dir := range stale {
		os.RemoveAll(dir)
	}
	for _, w := range todo {
		dir, err := os.MkdirTemp(mkdir(*scratch), "run-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// The flusher retries a PFS that refuses writes (a full disk) for
		// ever and Flush waits for it: give up, loudly, rather than hang.
		watchdog := time.AfterFunc(window+stuckAfter, func() {
			fmt.Fprintf(os.Stderr, "%s: still running %v after its %v window; giving up\n", w.Name, stuckAfter, window)
			os.RemoveAll(dir)
			os.Exit(1)
		})
		rc := runConfig{W: w, Sz: sz, Seed: *seed, Window: window, Traced: *trace != 0, Scratch: dir}
		if rc.Traced {
			rc.SpanOut = *spanOut
			if rc.SpanOut == "" {
				rc.SpanOut = filepath.Join(*scratch, "spans-"+w.Name+".csv.gz")
			}
		}
		res, err := runWorkload(context.Background(), rc)
		watchdog.Stop()
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
			return 1
		}
		report(os.Stdout, res, rc)
		if *out != "" {
			if err := appendRecord(*out, record{Env: env, Seconds: *seconds, Quick: *quick, runResult: res}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		if res.Failed != 0 {
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports what is wrong with it
	return dir
}

// report prints every metric by name with its unit and the number of
// samples behind it,
// then — as the last line — the result object the driver reads.
func report(w *os.File, res runResult, rc runConfig) {
	fmt.Fprintf(w, "workload %s seed %d traced %v: ops %d failed_ops %d\n", res.Workload, res.Seed, res.Traced, res.Ops, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("  %-36s %14.6g %s", n, m.Value, m.Unit)
		if k, ok := res.Samples[n]; ok && !res.Traced {
			line += fmt.Sprintf("  (n = %d)", k)
		}
		fmt.Fprintln(w, line)
	}
	if rc.SpanOut != "" {
		fmt.Fprintf(w, "  spans written to %s\n", rc.SpanOut)
	}
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Ops, res.Failed, res.Metrics})
	fmt.Fprintln(w, string(last))
}

// envInfo is what a result file says about where it was measured.
type envInfo struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// record is one line of an -out file.
type record struct {
	Env     envInfo `json:"env"`
	Seconds int     `json:"seconds"`
	Quick   bool    `json:"quick"`
	runResult
}

func environment() envInfo {
	return envInfo{
		Commit:     gitHead("."),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// gitHead resolves HEAD by reading .git directly, so the benchmark
// starts no process; "unknown" outside a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(line, " "+ref); ok {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	info, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
