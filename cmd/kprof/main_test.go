package main

import (
	"testing"
	"time"
)

// Drain tuning flags only mean something under -drain; without it they
// must be rejected by name, not silently run one-shot.
func TestCheckDrainFlags(t *testing.T) {
	for _, tc := range []struct {
		drain     bool
		highWater int
		interval  time.Duration
		want      string
	}{
		{false, 0, 0, ""},
		{true, 100, 2 * time.Millisecond, ""},
		{false, 100, 0, "-highwater 100 needs -drain"},
		{false, 0, 2 * time.Millisecond, "-draininterval 2ms needs -drain"},
	} {
		err := checkDrainFlags(tc.drain, tc.highWater, tc.interval)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("checkDrainFlags(%v, %d, %v) = %q, want %q", tc.drain, tc.highWater, tc.interval, got, tc.want)
		}
	}
}
