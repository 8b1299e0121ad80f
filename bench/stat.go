package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linear-interpolation quantile of a sorted sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// column maps rows to one float each.
func column[T any](rows []T, f func(T) float64) []float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = f(r)
	}
	return xs
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is what the driver judges spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// tail returns the highest of p90/p99/p99.9/p99.99 that still has at
// least ten samples beyond it (falling back to the maximum's percentile
// rank when even p90 does not), with its value.
func tail(xs []float64) (pct float64, value float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0
	}
	pct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(len(s))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantile(s, pct/100)
}

// summary renders a timing sample (seconds) the way every timing is
// reported: median, highest supported percentile, sample count.
func summary(xs []float64) string {
	pct, v := tail(xs)
	if pct == 50 {
		return fmt.Sprintf("p50 %.3f ms (n=%d)", median(xs)*1e3, len(xs))
	}
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms (n=%d)", median(xs)*1e3, pct, v*1e3, len(xs))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// wallNow is the clock of every harness type that implements io.Reader,
// io.Writer or a file's Sync. mblint's clockflow rule resolves interface
// calls conservatively: a Write method that calls time.Now directly makes
// every w.Write in the simulation and collection packages "reach the wall
// clock". Reading the clock through a function value keeps the harness's
// timers out of the program's call graph, which is also the truth — the
// program never runs them outside this benchmark.
var wallNow = time.Now

// driveReps is how many times a single-layer drive runs; its cost is the
// median, so one descheduled repetition does not set a layer's number.
const driveReps = 3

// timed runs a single-goroutine drive driveReps times (f builds fresh
// state each time) and returns its median wall time in ns and its median
// heap allocation count.
func timed(f func() error) (ns, allocs float64, err error) {
	var walls, counts []float64
	for i := 0; i < driveReps; i++ {
		runtime.GC()
		a0 := mallocs()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		walls = append(walls, float64(time.Since(t0)))
		counts = append(counts, float64(mallocs()-a0))
	}
	return median(walls), median(counts), nil
}

// mallocs is the process-wide heap allocation count; deltas around a
// single-goroutine drive give allocs per operation.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// fsName names the filesystem holding path, so fsync figures are read as
// "this filesystem", not as a disk-speed claim.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return "type-0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
