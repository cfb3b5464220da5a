package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"monarch/internal/obs"
)

// deadURL reserves a port and closes it, so nothing is listening.
func deadURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

func TestInspectMetricsDeadURL(t *testing.T) {
	if err := inspectMetrics(deadURL(t)); err == nil {
		t.Fatal("dead URL produced no error")
	}
}

func TestInspectMetricsMissingFile(t *testing.T) {
	if err := inspectMetrics(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file produced no error")
	}
}

func TestInspectMetricsRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspectMetrics(path); err == nil || !strings.Contains(err.Error(), "not a metrics snapshot") {
		t.Fatalf("garbage file error = %v", err)
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspectMetrics(empty); err == nil || !strings.Contains(err.Error(), "no series") {
		t.Fatalf("empty snapshot error = %v", err)
	}
}

func TestInspectMetricsFromSnapshotFile(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("i_ops_total", "").Add(7)
	r.Histogram("i_seconds", "", []float64{1, 10}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspectMetrics(path); err != nil {
		t.Fatal(err)
	}
}

func TestInspectTraceArgErrors(t *testing.T) {
	if err := inspectTrace(nil); err == nil {
		t.Fatal("no args accepted")
	}
	if err := inspectTrace([]string{"-bogus", "f"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := inspectTrace([]string{"a", "b"}); err == nil {
		t.Fatal("two paths accepted")
	}
	if err := inspectTrace([]string{filepath.Join(t.TempDir(), "nope.bin")}); err == nil {
		t.Fatal("missing trace accepted")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/events.golden (never the two parent-commit goldens)")

// stdoutOf runs fn with os.Stdout pointed at a file and returns what it
// printed.
func stdoutOf(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInspectTraceGolden renders internal/trace's committed capture —
// every kind and class, written by the parent of the one-encoding
// change. trace.golden and trace-json.golden are that parent's
// monarch-inspect output for it, so they are never regenerated: what a
// capture is reported to say did not change. events.golden pins the
// -events rendering (go test ./cmd/monarch-inspect -update).
func TestInspectTraceGolden(t *testing.T) {
	const fixture = "../../internal/trace/testdata/parent.bin"
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"trace.golden", []string{fixture}},
		{"trace-json.golden", []string{"-json", fixture}},
		{"events.golden", []string{"-events", fixture}},
	} {
		got := stdoutOf(t, func() error { return inspectTrace(c.args) })
		golden := filepath.Join("testdata", c.golden)
		if *update && c.golden == "events.golden" {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("monarch-inspect trace %v drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", c.args, c.golden, got, want)
		}
	}
	if err := inspectTrace([]string{"-events", "-json", fixture}); err == nil {
		t.Error("-events -json accepted")
	}
	if err := inspectTrace([]string{"-events", fixture, fixture}); err == nil {
		t.Error("-events over two files accepted")
	}
}
