//go:build race

package chaos

// The race detector makes a sync.Pool drop a random quarter of its Puts,
// so Build's generator is re-made at random.
func init() { raceDetector = true }
