//go:build !linux

package fleet

import "time"

// userCPU reports no user CPU time where getrusage is not used.
func userCPU() (time.Duration, bool) { return 0, false }
