package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// allocBytes returns the cumulative bytes allocated on the Go heap (the
// MemStats.TotalAlloc counter, read without stopping the world).
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// rssMB returns the process's current resident set size (VmRSS).
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmRSS:")) {
			continue
		}
		f := bytes.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(string(f[1]), 64)
		if err != nil {
			return 0, fmt.Errorf("VmRSS %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmRSS not found in /proc/self/status")
}

// rssSampleEvery is how often a run samples the resident set size.
const rssSampleEvery = 50 * time.Millisecond

// rssSample is the resident set size at one instant of a run.
type rssSample struct {
	at time.Duration // since start
	mb float64
}

// watchRSS samples the resident set size until stop is closed. The
// kernel's own high-water mark (VmHWM) cannot be used: it covers the
// whole process life, and the repeated set-ups and the naive oracle
// before the run reach higher than the system under load ever does.
func watchRSS(start time.Time, stop <-chan struct{}) (samples []rssSample, err error) {
	tick := time.NewTicker(rssSampleEvery)
	defer tick.Stop()
	for {
		v, rerr := rssMB()
		if rerr != nil {
			err = rerr
		}
		samples = append(samples, rssSample{at: time.Since(start), mb: v})
		select {
		case <-stop:
			return samples, err
		case <-tick.C:
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
