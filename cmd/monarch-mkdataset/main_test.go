package main

import (
	"math"
	"strings"
	"testing"
)

func TestParseBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		err  string // a substring of the error; "" for none
	}{
		{"123", 123, ""},
		{"64KiB", 64 << 10, ""},
		{" 2mib ", 2 << 20, ""},
		{"1GiB", 1 << 30, ""},
		{"8589934591GiB", 8589934591 << 30, ""}, // the largest GiB count that fits
		{"9223372036854775807", math.MaxInt64, ""},
		{"17179869185GiB", 0, `"17179869185GiB": exceeds`}, // wrapped to 1 GiB
		{"8589934593GiB", 0, `"8589934593GiB": exceeds`},   // wrapped negative
		{"9007199254740992KiB", 0, "exceeds"},
		{"0", 0, `"0": must be positive`},
		{"0MiB", 0, "must be positive"},
		{"-5KiB", 0, `"-5KiB": must be positive`},
		{"12XB", 0, `bad size "12XB"`},
		{"", 0, "bad size"},
		{"99999999999999999999", 0, "bad size"},
	} {
		got, err := parseBytes(c.in)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("parseBytes(%q): %v", c.in, err)
		case c.err == "" && got != c.want:
			t.Errorf("parseBytes(%q) = %d, want %d", c.in, got, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("parseBytes(%q) = %d, %v; want an error containing %q", c.in, got, err, c.err)
		}
	}
}
