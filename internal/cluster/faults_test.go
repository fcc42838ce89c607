package cluster

import (
	"testing"
	"time"
)

func TestKillRemovesNodesButKeepsOne(t *testing.T) {
	c := mustNew(t, DefaultConfig(), 4)
	if got := c.Kill(2); got != 2 {
		t.Errorf("killed = %d", got)
	}
	if c.Size() != 2 {
		t.Errorf("size = %d", c.Size())
	}
	// Killing more than available leaves the last node standing.
	if got := c.Kill(10); got != 1 {
		t.Errorf("killed = %d", got)
	}
	if c.Size() != 1 {
		t.Errorf("size = %d", c.Size())
	}
	if c.Failures != 3 {
		t.Errorf("failures = %d", c.Failures)
	}
}

func TestKillThenScaleToReplacesWithWarmup(t *testing.T) {
	cfg := Config{CheckpointMB: 1024, LoadBandwidthMBps: 256, BaseWarmup: time.Second} // 5s warmup
	c := mustNew(t, cfg, 3)
	c.Kill(2)
	if err := c.ScaleTo(3); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Errorf("size = %d", c.Size())
	}
	// Replacements are warming.
	if c.ReadyCount() != 1 {
		t.Errorf("ready = %d", c.ReadyCount())
	}
	c.Advance(10 * time.Second)
	if c.ReadyCount() != 3 {
		t.Errorf("ready after warmup = %d", c.ReadyCount())
	}
}
