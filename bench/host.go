package main

import (
	"bufio"
	"context"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFacts describes the machine a run measured on.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	GitHead    string `json:"git_head,omitempty"`
}

func readHost() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		GitHead:    gitHead(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitHead asks git for the commit of the working directory, only when the
// directory itself is a repository root, so the lookup never searches the
// directories above it.
func gitHead() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuTime is the user+system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freshMemory collects the heap, returns freed memory to the OS and
// restarts the kernel's peak-RSS counter (VmHWM) there, so the operation
// that follows starts as a fresh process would, with nothing kept from the
// last one. It returns the resident set it starts from, in MiB. That start
// differs from process to process by a few MiB that are not heap, left by
// the setups' mining, so rssGrowthMiB subtracts it.
func freshMemory() float64 {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported kernels keep the process-lifetime peak
	return statusMiB("VmRSS:")
}

// rssGrowthMiB is how far the resident set has peaked above start since
// freshMemory returned it.
func rssGrowthMiB(start float64) float64 { return statusMiB("VmHWM:") - start }

// statusMiB reads a kB field of /proc/self/status; 0 where there is none.
func statusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64) // a malformed line reads 0, which fails the run
			return kb / 1024
		}
	}
	return 0
}

// sample is what the benchmark takes medians of: times and MiB.
type sample interface{ time.Duration | float64 }

func sorted[T sample](xs []T) []T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the q-quantile of ds by nearest rank; 0 for none.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(ds))))
	return sorted(ds)[max(rank, 1)-1]
}

// mean returns the average of ds; 0 for none. Every timing the benchmark
// reports as an end-to-end metric is a mean over many samples spread over
// the run. The host's CPUs switch between a fast and a slow state, about
// 1.6× apart, several times a second, and the share of time in each drifts
// from minute to minute. A median or a minimum reads one state or the
// other, and flips between them from run to run as the shares drift, or as
// a run happens to meet a fast spell at all; a mean moves in proportion to
// the shares.
func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}

// median returns the middle value of xs, or the mean of the two middle
// values; 0 for none.
func median[T sample](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
