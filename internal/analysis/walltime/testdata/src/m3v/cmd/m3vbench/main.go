// Command m3vbench's fixture pins walltime's cmd/ carve-out: harness
// binaries measure real wall time (report timestamps, request latencies),
// so nothing here is flagged.
package main

import (
	"fmt"
	"time"
)

func main() {
	timestamp := time.Now().UTC().Format(time.RFC3339) // exempt: cmd/
	t0 := time.Now()                                   // exempt: cmd/
	wall := time.Since(t0)                             // exempt: cmd/
	fmt.Println(timestamp, wall)
}
