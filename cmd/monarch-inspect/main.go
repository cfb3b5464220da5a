// Command monarch-inspect examines TFRecord or RecordIO shards and
// datasets produced by monarch-mkdataset (or the frameworks
// themselves).
//
// Usage:
//
//	monarch-inspect tfrecord <file>   # index a TFRecord shard, verify CRCs
//	monarch-inspect recordio <file>   # index an MXNet RecordIO shard
//	monarch-inspect example <file>    # decode the first record's tf.Example
//	monarch-inspect dataset <dir>     # summarise a shard directory
//	monarch-inspect metrics <path|url> # summarise a metrics snapshot
//	monarch-inspect trace [-json] <file>... # per-epoch analytics of an access trace
//	monarch-inspect trace -events <file>    # the capture as text, one line per event
//	monarch-inspect top [-once] [-interval 2s] <url> # live cluster view
//
// The metrics subcommand accepts either a JSON snapshot file (as
// fetched from /metrics.json) or the base
// URL of a running instance's metrics endpoint (Config.MetricsAddr).
//
// The trace subcommand reads an access trace captured with
// monarch-bench -capture or Config.TracePath (one binary encoding) and
// derives per-epoch PFS operation counts and savings against a PFS-only
// baseline, per-file access heatmaps, the tier-transition timeline and
// time-to-first-local-hit; -json emits the full analysis as JSON, and
// -events, instead of analyzing, prints the capture itself: one
// greppable key=value line per event, in capture order.
// Given SEVERAL trace files — one per node of a peer-cache cluster —
// it instead stitches cross-node reads: each peer-served read's client
// half (in the reader's trace) is joined to its serve half (in the
// owner's trace) by the request ID both carry.
//
// The top subcommand polls a node's /cluster.json (served next to
// /metrics when the node runs a fleet aggregator) and renders a live
// terminal view of the cluster: per-node hit ratios, tier occupancy,
// breaker and gossip state, per-job quota usage and eviction churn.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"monarch/internal/obs"
	"monarch/internal/recordio"
	"monarch/internal/stats"
	"monarch/internal/storage"
	"monarch/internal/tfexample"
	"monarch/internal/tfrecord"
	"monarch/internal/trace"
	"monarch/internal/trace/analyze"
)

func main() {
	if len(os.Args) < 3 {
		fatal(fmt.Errorf("usage: monarch-inspect {tfrecord <file> | recordio <file> | dataset <dir> | metrics <path|url> | trace [-json | -events] <file>... | top [-once] [-interval 2s] <url>}"))
	}
	var err error
	switch os.Args[1] {
	case "tfrecord":
		err = inspectShard(os.Args[2], false)
	case "recordio":
		err = inspectShard(os.Args[2], true)
	case "example":
		err = inspectExample(os.Args[2])
	case "dataset":
		err = inspectDataset(os.Args[2])
	case "metrics":
		err = inspectMetrics(os.Args[2])
	case "trace":
		err = inspectTrace(os.Args[2:])
	case "top":
		err = inspectTop(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fatal(err)
	}
}

// inspectTrace analyzes access traces. One file: per-epoch analytics,
// human tables by default, the full analysis as JSON with -json, the
// events themselves with -events.
// Several files — one per node of a peer-cache cluster — switch to
// cross-node correlation: peer reads are stitched to the serve events
// the owning nodes recorded, joined by the shared request ID.
func inspectTrace(args []string) error {
	asJSON, asEvents := false, false
	var paths []string
	for _, a := range args {
		switch {
		case a == "-json" || a == "--json":
			asJSON = true
		case a == "-events" || a == "--events":
			asEvents = true
		case strings.HasPrefix(a, "-"):
			return fmt.Errorf("trace: unknown flag %q", a)
		default:
			paths = append(paths, a)
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("usage: monarch-inspect trace [-json | -events] <file>...")
	}
	if asEvents && (asJSON || len(paths) > 1) {
		return fmt.Errorf("trace: -events renders one file, as text")
	}
	if len(paths) == 1 {
		t, err := trace.ReadFile(paths[0])
		if err != nil {
			return err
		}
		if asEvents {
			return renderEvents(os.Stdout, t)
		}
		a := analyze.Analyze(t, analyze.Options{})
		if asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(a)
		}
		a.Render(os.Stdout, analyze.Options{})
		return nil
	}

	traces := make(map[string]*trace.Trace, len(paths))
	for _, p := range paths {
		t, err := trace.ReadFile(p)
		if err != nil {
			return err
		}
		node := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		if _, dup := traces[node]; dup {
			node = p // fall back to the full path on basename collisions
		}
		traces[node] = t
	}
	c := analyze.Correlate(traces)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(c)
	}
	renderCorrelation(os.Stdout, traces, c)
	return nil
}

// renderEvents prints a capture one event per line, in capture order:
// the greppable view of the binary encoding. Fields that do not apply
// (no class, no file, no request ID) are left out.
func renderEvents(w io.Writer, t *trace.Trace) error {
	bw := bufio.NewWriter(w)
	for _, ev := range t.Events {
		fmt.Fprintf(bw, "t=%d kind=%s", ev.T, ev.Kind)
		if c := ev.Class.String(); c != "" {
			fmt.Fprintf(bw, " class=%s", c)
		}
		if ev.File != 0 {
			fmt.Fprintf(bw, " file=%s", t.Name(ev.File))
		}
		fmt.Fprintf(bw, " tier=%d lat=%g off=%d len=%d", ev.Tier, trace.LatBucketBound(ev.Lat), ev.Off, ev.Len)
		if ev.Req != 0 {
			fmt.Fprintf(bw, " req=%016x", ev.Req)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// renderCorrelation prints the stitched cross-node view.
func renderCorrelation(w io.Writer, traces map[string]*trace.Trace, c *analyze.Correlation) {
	nodes := make([]string, 0, len(traces))
	for n := range traces {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	fmt.Fprintf(w, "correlating %d traces:\n", len(nodes))
	for _, n := range nodes {
		t := traces[n]
		var serves int
		for _, ev := range t.Events {
			if ev.Kind == trace.KindServe {
				serves++
			}
		}
		fmt.Fprintf(w, "  %-20s %6d event(s), %d serve(s)\n", n, len(t.Events), serves)
	}
	fmt.Fprintf(w, "\n%d stitched cross-node read(s), %d unmatched read(s), %d unmatched serve(s)\n",
		len(c.Pairs), c.UnmatchedReads, c.UnmatchedServes)
	const show = 10
	for i, p := range c.Pairs {
		if i == show {
			fmt.Fprintf(w, "  … %d more pair(s)\n", len(c.Pairs)-show)
			break
		}
		for _, s := range p.Serves {
			fmt.Fprintf(w, "  req=%016x %-28s %s(%s, ≤%gs) ⇐ %s(≤%gs)\n",
				p.Req, p.Client.File, p.Client.Node, p.Client.Class, p.Client.Lat,
				s.Node, s.Lat)
		}
	}
}

func inspectShard(path string, mxnet bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sizes []float64
	var framing int64
	if mxnet {
		idx, err := recordio.BuildIndex(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, e := range idx {
			sizes = append(sizes, float64(e.Length))
			framing += recordio.RecordSize(e.Length) - e.Length
		}
	} else {
		idx, err := tfrecord.BuildIndex(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, e := range idx {
			sizes = append(sizes, float64(e.Length))
			framing += tfrecord.Overhead
		}
	}
	s := stats.Summarize(sizes)
	fmt.Printf("%s: %d records, %d bytes (%.1f%% framing overhead)\n",
		path, s.N, len(data), 100*float64(framing)/float64(len(data)))
	fmt.Printf("record sizes: mean %.0f ± %.0f, min %.0f, p50 %.0f, p99 %.0f, max %.0f\n",
		s.Mean, s.StdDev, s.Min, s.P50, s.P99, s.Max)
	return nil
}

// inspectExample decodes the first record of a TFRecord shard as a
// tf.Example and prints its features.
func inspectExample(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	payload, err := tfrecord.NewReader(f).Next()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	ex, err := tfexample.Unmarshal(payload)
	if err != nil {
		return fmt.Errorf("%s: first record is not a tf.Example: %w", path, err)
	}
	names := make([]string, 0, len(ex))
	for name := range ex {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: first record is a tf.Example with %d feature(s)\n", path, len(ex))
	for _, name := range names {
		feat := ex[name]
		switch {
		case feat.Bytes != nil:
			total := 0
			for _, b := range feat.Bytes {
				total += len(b)
			}
			fmt.Printf("  %-24s bytes_list: %d value(s), %d bytes\n", name, len(feat.Bytes), total)
		case feat.Ints != nil:
			fmt.Printf("  %-24s int64_list: %v\n", name, feat.Ints)
		case feat.Floats != nil:
			fmt.Printf("  %-24s float_list: %v\n", name, feat.Floats)
		}
	}
	return nil
}

func inspectDataset(dir string) error {
	backend, err := storage.NewOSFS("ds", dir, 0)
	if err != nil {
		return err
	}
	infos, err := backend.List(context.Background())
	if err != nil {
		return err
	}
	var shards int
	var total int64
	for _, fi := range infos {
		if !strings.Contains(fi.Name, ".tfrecord-") {
			continue
		}
		shards++
		total += fi.Size
	}
	if shards == 0 {
		return fmt.Errorf("%s: no *.tfrecord-* shards found", dir)
	}
	fmt.Printf("%s: %d shards, %d bytes total, mean shard %d bytes\n",
		dir, shards, total, total/int64(shards))
	return nil
}

// inspectMetrics prints a metrics snapshot, from a JSON file or a live
// endpoint. Histograms are summarised as count/sum; counters and gauges
// print one line per series, in the registry's deterministic order.
func inspectMetrics(src string) error {
	var data []byte
	var err error
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		url := src
		if !strings.HasSuffix(url, "/metrics.json") {
			url = strings.TrimSuffix(url, "/") + "/metrics.json"
		}
		resp, herr := http.Get(url)
		if herr != nil {
			return herr
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", url, resp.Status)
		}
		data, err = io.ReadAll(resp.Body)
	} else {
		data, err = os.ReadFile(src)
	}
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%s: not a metrics snapshot: %w", src, err)
	}
	if len(snap.Metrics) == 0 {
		return fmt.Errorf("%s: snapshot holds no series", src)
	}
	for _, p := range snap.Metrics {
		name := p.Name
		if len(p.Labels) > 0 {
			keys := make([]string, 0, len(p.Labels))
			for k := range p.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pairs := make([]string, 0, len(keys))
			for _, k := range keys {
				pairs = append(pairs, fmt.Sprintf("%s=%q", k, p.Labels[k]))
			}
			name += "{" + strings.Join(pairs, ",") + "}"
		}
		if p.Histogram != nil {
			fmt.Printf("%-64s count=%d sum=%g p50=%g p95=%g p99=%g\n",
				name, p.Histogram.Count, p.Histogram.Sum,
				p.Histogram.P50, p.Histogram.P95, p.Histogram.P99)
			continue
		}
		fmt.Printf("%-64s %g\n", name, *p.Value)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "monarch-inspect:", err)
	os.Exit(1)
}
