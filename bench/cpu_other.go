//go:build !unix

package main

import "time"

// cpuTime falls back to wall time where getrusage does not exist; CPU
// metrics then read as one fully busy core.
func cpuTime() time.Duration { return wall.Since(processStart) }
