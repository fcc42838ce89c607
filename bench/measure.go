//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one reading of the process's resource counters. Every gated
// timing in this benchmark is a difference of two readings' CPU fields:
// on the shared 2-core sandbox the same fleet run measured 2.6-4.5 s of
// wall time but 4.8-5.2 s of CPU, so wall time is reported and never
// gated.
type usage struct {
	user, sys time.Duration
	wall      time.Time
	mallocs   uint64
	bytes     uint64
	gcs       uint32
	steal     float64 // seconds the hypervisor withheld from this VM's CPUs
}

// delta is the difference of two usage readings.
type delta struct {
	user, sys, wall float64 // seconds
	mallocs, bytes  uint64
	gcs             uint32
	steal           float64
}

func (d delta) cpu() float64 { return d.user + d.sys }

// stolen is the share of the CPU time the interval wanted that the
// hypervisor withheld.
func (d delta) stolen() float64 {
	if d.steal <= 0 {
		return 0
	}
	return d.steal / (d.cpu() + d.steal)
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// rusage reads the resource counters of the process (RUSAGE_SELF) or of
// the calling thread (RUSAGE_THREAD).
func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with a valid who and pointer
	}
	return ru
}

// threadCPU is the calling thread's user and system CPU time in seconds;
// meaningful between two calls on a goroutine locked to its thread.
func threadCPU() (user, sys float64) {
	ru := rusage(syscall.RUSAGE_THREAD)
	return tvDuration(ru.Utime).Seconds(), tvDuration(ru.Stime).Seconds()
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sample reads the process CPU clocks and the allocator counters.
func sample() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ru := rusage(syscall.RUSAGE_SELF)
	return usage{
		user: tvDuration(ru.Utime), sys: tvDuration(ru.Stime), wall: time.Now(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC,
		steal: stealSeconds(),
	}
}

// stealSeconds reads the machine-wide steal time from /proc/stat.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line := raw
	if i := bytes.IndexByte(raw, '\n'); i >= 0 {
		line = raw[:i]
	}
	f := strings.Fields(string(line))
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

func (u usage) since(start usage) delta {
	return delta{
		user:    (u.user - start.user).Seconds(),
		sys:     (u.sys - start.sys).Seconds(),
		wall:    u.wall.Sub(start.wall).Seconds(),
		mallocs: u.mallocs - start.mallocs,
		bytes:   u.bytes - start.bytes,
		gcs:     u.gcs - start.gcs,
		steal:   u.steal - start.steal,
	}
}

// liveHeap forces two collections (the second frees what finalizers and
// sync.Pool victims kept through the first) and returns the bytes still
// reachable: the resident cost of whatever set-up just built.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB is the resident-set high-water mark since the last
// resetPeakRSS (ru_maxrss is KiB on Linux).
func peakRSSMB() float64 { return float64(rusage(syscall.RUSAGE_SELF).Maxrss) / 1024 }

// pinWorkers fixes GOMAXPROCS and the worker count every layer receives
// at min(nproc, 2): the reference box has two cores, and a run that
// borrows more on a bigger machine would not be comparable.
func pinWorkers() int {
	w := runtime.NumCPU()
	if w > 2 {
		w = 2
	}
	runtime.GOMAXPROCS(w)
	return w
}

// Filesystem magic numbers of memory-backed filesystems (statfs f_type).
const (
	tmpfsMagic = 0x01021994
	ramfsMagic = 0x858458f6
)

// errMemoryBacked is returned for a state directory that is not on a disk.
var errMemoryBacked = errors.New("state dir is on a memory-backed filesystem; the durable workload needs a real disk")

// tempRoot is where state directories and trace files go: inside the
// working directory, because a benchmark run may write only inside its
// checkout, and ignored by git.
const tempRoot = ".bench_tmp"

// newStateDir creates a fresh checkpoint directory under root and
// refuses memory-backed filesystems: the durable workload measures
// fsync-bound checkpointing, which tmpfs turns into a no-op. The caller
// removes the directory.
func newStateDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", root, err)
	}
	dir, err := os.MkdirTemp(root, "state-*")
	if err != nil {
		return "", fmt.Errorf("creating state dir: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err == nil {
		err = checkOnDisk(abs)
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

func checkOnDisk(abs string) error {
	if abs == "/dev/shm" || strings.HasPrefix(abs, "/dev/shm/") {
		return fmt.Errorf("%w: %s is under /dev/shm", errMemoryBacked, abs)
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(abs, &fs); err != nil {
		return fmt.Errorf("statfs %s: %w", abs, err)
	}
	if t := int64(fs.Type); t == tmpfsMagic || t == ramfsMagic {
		return fmt.Errorf("%w: %s has f_type %#x", errMemoryBacked, abs, t)
	}
	return nil
}

// median returns the middle value (mean of the middle pair for an even
// count). It panics on an empty slice: every caller has at least one rep.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadPct is (max-min)/median in percent: the rep-to-rep spread shown
// beside each median.
func spreadPct(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return 100 * (hi - lo) / math.Abs(m)
}

// resetPeakRSS restarts the resident-set high-water mark at the current
// resident set (Linux 4.0+), so each rep reports its own peak and the
// run can take a median, not the maximum over however many reps it ran.
// Where the kernel refuses, the mark stays the process-lifetime maximum.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // the fallback above is the error handling
}
