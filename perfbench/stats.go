package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timing summarises a sample of per-operation host times: the median, the
// highest percentile that has at least ten samples beyond it, and the
// sample count.
type timing struct {
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	P50    float64 `json:"p50"`
	Pct    float64 `json:"pct"`
	PctVal float64 `json:"pctValue"`
}

// tailPercentiles are the candidates for a timing's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

func summarize(samples []float64, unit string) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s), Unit: unit, P50: quantile(s, 0.5), Pct: 50}
	t.PctVal = t.P50
	for _, p := range tailPercentiles {
		if float64(len(s))*(100-p)/100 >= 10-1e-9 { // tolerate rounding in 100-p
			t.Pct, t.PctVal = p, quantile(s, p/100)
			break
		}
	}
	return t
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the CPU time the process has used so far, summed over all its
// threads (CLOCK_PROCESS_CPUTIME_ID). Unlike wall time it leaves out time
// the hypervisor gave this machine's CPUs to other guests (steal), which on
// a shared virtual machine varies by tens of percent from minute to
// minute. It includes the garbage collector's background work. The clock
// is read directly rather than through getrusage, whose user/system split
// is resampled at scheduler ticks and jitters by a tick.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock and buffer cannot fail
	}
	return time.Duration(ts.Nano())
}

// totalAlloc returns the Go heap bytes allocated so far by the process.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// host identifies the machine a result was measured on. Timings compare
// only between results with equal host stanzas; counts and allocation
// figures compare across hosts.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
}

func thisHost() host {
	return host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
