//go:build race

package fleet

// The race detector makes a sync.Pool drop a random quarter of its Puts,
// so trace generation re-makes its scratch at random.
func init() { raceDetector = true }
