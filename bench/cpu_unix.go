//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTime is the user+system CPU time this process has consumed: what the
// run would be billed for in VM-seconds.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return wall.Since(processStart)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
