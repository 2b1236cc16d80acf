package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// samples collects latencies per op kind from concurrent clients, each
// with the time its exchange was half done.
type samples struct {
	mu sync.Mutex
	xs map[string][]sample
}

type sample struct {
	mid time.Time
	ms  float64
}

func newSamples() *samples { return &samples{xs: map[string][]sample{}} }

func (s *samples) add(kind string, start time.Time, d time.Duration) {
	s.mu.Lock()
	s.xs[kind] = append(s.xs[kind], sample{start.Add(d / 2), ms(d)})
	s.mu.Unlock()
}

// get returns the kind's latencies in ms, each multiplied by scale at
// its midpoint when scale is set.
func (s *samples) get(kind string, scale func(time.Time) float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.xs[kind]))
	for i, x := range s.xs[kind] {
		out[i] = x.ms
		if scale != nil {
			out[i] *= scale(x.mid)
		}
	}
	return out
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process high-water resident set size (VmHWM).
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// rssMB reads the process's current resident set size (VmRSS).
func rssMB() float64 { return statusMB("VmRSS:") }

// rssSampler records the resident set size every interval until stop.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var xs []float64
		for {
			select {
			case <-s.stop:
				s.done <- xs
				return
			case <-tick.C:
				xs = append(xs, rssMB())
			}
		}
	}()
	return s
}

// mean stops the sampler and returns the mean of its samples.
func (s *rssSampler) mean() float64 {
	close(s.stop)
	xs := <-s.done
	if len(xs) == 0 {
		return rssMB()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field) {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// memDelta measures Go allocation and GC pause between two points.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.start)
	return m
}

// perOp returns allocated bytes and GC pause milliseconds per op since start.
func (m *memDelta) perOp(ops int) (allocBytes, gcPauseMS float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	if ops < 1 {
		ops = 1
	}
	allocBytes = float64(now.TotalAlloc-m.start.TotalAlloc) / float64(ops)
	gcPauseMS = float64(now.PauseTotalNs-m.start.PauseTotalNs) / 1e6 / float64(ops)
	return allocBytes, gcPauseMS
}

// window is a stretch of a timed phase and the ok ops and campaigns
// completed in it.
type window struct {
	from, to       time.Time
	ops, campaigns int
}

func (w window) secs() float64 { return w.to.Sub(w.from).Seconds() }

// windows splits a timed phase that began at start into consecutive
// windows of w ops by op index and returns the full ones. A window
// lasts from the last completion of the windows before it to its own
// last completion, so the windows tile the phase.
func windows(start time.Time, done []opDone, w int) []window {
	sort.Slice(done, func(a, b int) bool { return done[a].index < done[b].index })
	var out []window
	prev := start
	for lo := 0; lo+w <= len(done); lo += w {
		win := window{from: prev, to: prev}
		for _, d := range done[lo : lo+w] {
			if d.at.After(win.to) {
				win.to = d.at
			}
			if d.ok {
				win.ops++
			}
			win.campaigns += d.campaigns
		}
		if win.to.After(win.from) {
			out = append(out, win)
			prev = win.to
		}
	}
	return out
}
