package obs

import (
	"runtime"
	"time"
)

// RegisterRuntime registers the process-level gauges on r: goroutine
// count, heap in use, total GC pause, completed GC cycles, uptime, and
// a constant glove_boot_info{boot_id} 1 series identifying the
// incarnation.
func RegisterRuntime(r *Registry, bootID string, start time.Time) {
	r.GaugeFunc("glove_process_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("glove_process_heap_inuse_bytes",
		"Bytes of heap memory in use.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapInuse)
		})
	r.CounterFunc("glove_process_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
	r.CounterFunc("glove_process_gc_cycles_total",
		"Completed GC cycles.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
	r.GaugeFunc("glove_process_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(start).Seconds() })
	boot := r.GaugeVec("glove_boot_info",
		"Constant 1, labeled with the server boot id; a changed boot_id means a restart.",
		"boot_id")
	boot.With(bootID).Set(1)
}
