package fleet

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// FuzzBindFlags parses arbitrary argument vectors (NUL-separated) with
// the flags both daemons share. A vector ends in a parse error or in a
// Config that validate accepts or refuses with an error; it never panics,
// and a parse that succeeds holds only what the flags promise to refuse
// otherwise: quantile levels inside (0, 1) and at least one retained
// segment and one round per checkpoint.
func FuzzBindFlags(f *testing.F) {
	for _, args := range []string{
		"",
		"-horizon\x000",
		"-tau=0.95\x00-tau2=0.99\x00-strategy=adaptive",
		"-tau=1.5",
		"-tau2=NaN",
		"-state-retain=0",
		"-checkpoint-interval\x00-3",
		"-burn-windows=fast=14.4x:12/1,slow=6x:72/6",
		"-burn-windows=x:1/2",
		"-slo-target=0.01\x00-slo-window=-5",
		"-chaos=wake-storm\x00-serverless\x00-chaos-seed=7",
		"-chaos=bogus",
		"-theta=-1\x00-seed=-9223372036854775808",
		"-rho=Inf\x00-guard=false\x00-label-limit=0\x00-listen=:0",
		"-h",
		"--\x00-tau=2",
		"positional\x00-tau=0.5",
	} {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, vector string) {
		var args []string
		if vector != "" {
			args = strings.Split(vector, "\x00")
		}
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		got := BindFlags(fs, DefaultConfig(4))
		if fs.Parse(args) != nil {
			return
		}
		c := got.Config
		if !(c.Tau > 0 && c.Tau < 1) || !(c.Tau2 > 0 && c.Tau2 < 1) {
			t.Fatalf("%q parsed to quantile levels %v, %v", args, c.Tau, c.Tau2)
		}
		if c.Retain < 1 || c.CheckpointInterval < 1 {
			t.Fatalf("%q parsed to %d retained segments, a checkpoint every %d rounds", args, c.Retain, c.CheckpointInterval)
		}
		_ = c.validate() // accepted or refused with an error, never a panic
	})
}
