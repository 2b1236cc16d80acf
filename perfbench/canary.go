package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// canaryEvery is the canary's sampling interval; each sample costs about
// 2.5 ms of one core.
const canaryEvery = 100 * time.Millisecond

// canaryRefMS is the canary kernel's CPU time on the reference machine
// (2-core Intel Xeon, go1.24) when its neighbours are quiet. It only
// sets the scale of the normalized figures.
const canaryRefMS = 2.5

// canarySpan is how far around a moment hostSpeed.at looks for samples.
const canarySpan = 500 * time.Millisecond

// canarySample is one timing of the canary kernel: when it ran and the
// CPU time it took in ms.
type canarySample struct {
	at time.Time
	ms float64
}

// canary times a fixed kernel that shares no code with the service at a
// steady interval while a run goes on. It measures its own thread's CPU
// time, so waiting for a core does not count: what it sees is how fast
// the host executes code at that moment. On a shared host that speed
// drifts by tens of percent, within seconds and over minutes, and the
// workload drifts with it.
type canary struct {
	stop chan struct{}
	done chan []canarySample
	once sync.Once
	xs   []canarySample
}

func startCanary() *canary {
	c := &canary{stop: make(chan struct{}), done: make(chan []canarySample, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		st := newCanaryState()
		tick := time.NewTicker(canaryEvery)
		defer tick.Stop()
		var xs []canarySample
		for {
			select {
			case <-c.stop:
				c.done <- xs
				return
			case <-tick.C:
				c0 := threadCPU()
				st.run()
				xs = append(xs, canarySample{at: time.Now(), ms: float64(threadCPU()-c0) / 1e6})
			}
		}
	}()
	return c
}

// speed stops the canary, waits for it, and returns what it saw.
func (c *canary) speed() hostSpeed {
	c.once.Do(func() {
		close(c.stop)
		c.xs = <-c.done
	})
	return hostSpeed{c.xs}
}

// hostSpeed is the host's speed relative to the reference machine over
// a run, from canary samples in time order: above 1 the host ran faster.
type hostSpeed struct{ xs []canarySample }

// over is the speed from the samples taken between a and b, or around
// their midpoint when there are none.
func (h hostSpeed) over(a, b time.Time) float64 {
	lo := sort.Search(len(h.xs), func(i int) bool { return !h.xs[i].at.Before(a) })
	hi := sort.Search(len(h.xs), func(i int) bool { return h.xs[i].at.After(b) })
	if lo >= hi {
		if b.Sub(a) >= 2*canarySpan {
			return h.overall()
		}
		mid := a.Add(b.Sub(a) / 2)
		return h.over(mid.Add(-canarySpan), mid.Add(canarySpan))
	}
	return h.of(h.xs[lo:hi])
}

// at is the speed around moment t.
func (h hostSpeed) at(t time.Time) float64 { return h.over(t.Add(-canarySpan), t.Add(canarySpan)) }

func (h hostSpeed) overall() float64 { return h.of(h.xs) }

func (h hostSpeed) of(xs []canarySample) float64 {
	if len(xs) == 0 {
		return 1
	}
	ms := make([]float64, len(xs))
	for i, x := range xs {
		ms[i] = x.ms
	}
	return canaryRefMS / median(ms)
}

// threadCPU is the calling thread's CPU time in ns.
func threadCPU() int64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

type probeRow struct {
	Name     string  `json:"name"`
	Detected []int   `json:"detected"`
	Percent  float64 `json:"percent"`
}

// canaryState is the kernel's working set, built once: word-parallel
// logic over cache-resident bit planes, gate values behind a
// string-keyed map, and a small report to encode and decode.
type canaryState struct {
	planes []uint64
	names  []string
	vals   map[string]uint8
	rows   []probeRow
	x, acc uint64
}

func newCanaryState() *canaryState {
	s := &canaryState{planes: make([]uint64, 4096), names: make([]string, 2048), vals: map[string]uint8{}, rows: make([]probeRow, 16), x: 1}
	for i := range s.planes {
		s.planes[i] = s.next()
	}
	for i := range s.names {
		s.names[i] = "g" + strconv.Itoa(i)
		s.vals[s.names[i]] = uint8(s.next() & 1)
	}
	for i := range s.rows {
		s.rows[i] = probeRow{Name: s.names[i], Percent: float64(i) / 3}
		for d := 0; d < 16; d++ {
			s.rows[i].Detected = append(s.rows[i].Detected, int(s.next()>>48))
		}
	}
	return s
}

func (s *canaryState) next() uint64 {
	s.x = s.x*6364136223846793005 + 1442695040888963407
	return s.x
}

func (s *canaryState) run() {
	for pass := 0; pass < 40; pass++ {
		for i := 3; i < len(s.planes); i++ {
			a, b, c := s.planes[i-1], s.planes[i-2], s.planes[i-3]
			s.planes[i] = (a & b) | (^c & (a ^ b))
		}
		s.acc ^= s.planes[int(s.next()>>52)&4095]
	}
	for k := 0; k < 40_000; k++ {
		n := s.names[int(s.next()>>40)&2047]
		v := s.vals[n]
		s.vals[n] = v ^ uint8(k&1)
		s.acc += uint64(v)
	}
	for k := 0; k < 10; k++ {
		raw, _ := json.MarshalIndent(s.rows, "", "  ")
		var back []probeRow
		_ = json.Unmarshal(raw, &back)
		s.acc += uint64(len(raw) + len(back))
	}
}
