package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's CPUs do not hold one speed: they switch between a fast and a
// slow state several times a second, and the share of time in each drifts
// from minute to minute, so the same work can take twice as long in one
// run as in another. A speedometer measures that drift while a workload
// runs. Every speedPeriod it runs a fixed reference kernel on a thread of
// its own and records the thread CPU time the kernel took. Thread CPU time
// leaves out the time the thread waits for a CPU, so the workload's own
// load does not slow the kernel down; only the host's speed does.
//
// Every time the benchmark reports is scaled by referenceKernel over the
// kernel's mean time while it was measured: it reads as it would on the
// host running at the speed where the kernel takes referenceKernel. A drift
// of the host moves the kernel and the workload alike and cancels; a change
// to the program moves the workload alone. The scaling is as local as the
// samples allow, an iteration, a round's warm starts or a load step, since
// the host's speed moves within a run too.
const (
	speedPeriod = 20 * time.Millisecond
	// referenceKernel is about the kernel's mean time on the 2-vCPU host
	// README.md's numbers come from. It fixes the scale and nothing else.
	referenceKernel = 500 * time.Microsecond
)

// scale returns d, measured while the kernel took kernel on average, at
// reference speed.
func scale(d, kernel time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(referenceKernel) / float64(kernel))
}

// timings holds one kind of sample both as measured and at reference speed.
type timings struct{ raw, scaled []time.Duration }

func (t *timings) add(d, kernel time.Duration) {
	t.raw = append(t.raw, d)
	t.scaled = append(t.scaled, scale(d, kernel))
}

// speedReading is the kernel's total thread CPU time and number of runs
// since the speedometer started, and its last run's time.
type speedReading struct {
	total, last time.Duration
	runs        int
}

// since returns the kernel's mean time between two readings, or its last
// run's time when it did not run in between.
func (r speedReading) since(from speedReading) time.Duration {
	if r.runs == from.runs {
		return r.last
	}
	return (r.total - from.total) / time.Duration(r.runs-from.runs)
}

type speedometer struct {
	mu      sync.Mutex
	now     speedReading
	started chan struct{} // closed after the first run
	stop    chan struct{}
	done    chan struct{}
}

// startSpeedometer starts the kernel's thread and returns once the kernel
// has run once; close stops the thread.
func startSpeedometer() *speedometer {
	s := &speedometer{started: make(chan struct{}), stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	<-s.started
	return s
}

func (s *speedometer) loop() {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k := newKernel()
	tick := time.NewTicker(speedPeriod)
	defer tick.Stop()
	for {
		c0 := threadCPU()
		k.run()
		took := threadCPU() - c0
		s.mu.Lock()
		if s.now.runs == 0 {
			close(s.started)
		}
		s.now.total += took
		s.now.last = took
		s.now.runs++
		s.mu.Unlock()
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

func (s *speedometer) read() speedReading {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// kernel is the reference work: it sorts 4096 fixed keys, branchy work on
// data in the CPU's caches, then looks 4096 keys up in a map of 64 Ki
// entries, as the program's indexes do. Of three kernels tried, this pair
// tracked both workloads' drift best (README.md). Its inputs are made once,
// so a run allocates nothing and leaves the garbage collector alone.
type kernel struct {
	keys, buf []uint32
	table     map[uint64]uint32
	sink      uint64
}

func newKernel() *kernel {
	k := &kernel{keys: make([]uint32, 4096), buf: make([]uint32, 4096), table: make(map[uint64]uint32, 1<<16)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range k.keys {
		k.keys[i] = uint32(next())
	}
	for i := 0; i < 1<<16; i++ {
		k.table[next()] = uint32(i)
	}
	return k
}

func (k *kernel) run() {
	copy(k.buf, k.keys)
	slices.Sort(k.buf)
	h := uint64(k.buf[len(k.buf)/2])
	for i := 0; i < 4096; i++ {
		h = h*0x9e3779b97f4a7c15 + uint64(i)
		k.sink += uint64(k.table[h])
	}
}
