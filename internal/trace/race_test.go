//go:build race

package trace

// The race detector makes a sync.Pool drop a random quarter of its Puts,
// so Generate's scratch is re-made at random.
func init() { raceDetector = true }
