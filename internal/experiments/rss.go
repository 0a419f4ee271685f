package experiments

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// PeakRSSMB reports the process's peak resident set size in MiB. On
// Linux it reads VmHWM from /proc/self/status — the kernel's
// high-water mark, which is what the figLS scale experiment wants:
// a number that must NOT grow with flow count under streaming stats.
// Elsewhere (or if procfs is unreadable) it falls back to the Go
// runtime's total OS memory, a looser but same-order proxy.
//
// The high-water mark covers the whole process lifetime, so a
// dedicated `cmd/experiments -fig figLS` invocation measures the
// streamed run itself; mixed invocations measure the largest figure
// run so far.
func PeakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line) // "VmHWM:  123456 kB"
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
