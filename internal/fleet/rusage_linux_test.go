package fleet

import (
	"syscall"
	"time"
)

// userCPU is the process's user CPU time so far.
func userCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano()), true
}
