package main

import (
	"crypto/sha256"
	"runtime"
	"time"
)

// probeRefMs is the reference host speed, as a hostProbe time: about
// the probe's median on the 2-vCPU "Intel(R) Xeon(R) Processor" VM this
// benchmark was tuned on, in an ordinary hour. The end-to-end times and
// rates a run reports are scaled to it, so they read close to
// wall-clock figures on that host. Only ratios between runs matter.
const probeRefMs = 3.5

// probesPerSegment is how many probes run before each segment's set-up.
const probesPerSegment = 5

// The probe's buffers are small (320 KiB) because the campaign is
// GC-bound: 4 MiB more of live heap spaces out its GC cycles and made
// it run 1.7 times as fast.
var (
	probeBuf = make([]byte, 64<<10)
	probeArr = make([]uint32, 1<<16)
)

// hostProbe times a fixed piece of CPU and memory work that shares no
// code with the program: SHA-256 over a buffer, then pseudo-random
// updates across an array. The benchmark's host is a shared VM whose
// speed drifts by up to 1.7x over minutes (co-tenants, not stolen time,
// which stays under 1 %): a probe of this kind took 19-21 ms when the
// flood ran at 48-52 M events/s, and 33-35 ms when it ran at 29 M. The
// probe allocates nothing.
func hostProbe() time.Duration {
	t := time.Now()
	for i := 0; i < 40; i++ {
		sha256.Sum256(probeBuf)
	}
	x := uint32(1)
	for i := 0; i < 1<<19; i++ {
		x = x*1664525 + 1013904223
		probeArr[x&(1<<16-1)] += uint32(i)
	}
	return time.Since(t)
}

// probe runs probesPerSegment host probes and records their times. A
// forced GC first keeps the program's garbage out of their times.
func (b *bench) probe() {
	runtime.GC()
	for i := 0; i < probesPerSegment; i++ {
		b.probes = append(b.probes, float64(hostProbe())/1e6)
	}
}

// hostScale is how much slower than the reference host this run's host
// ran: the median probe time over probeRefMs.
func (b *bench) hostScale() float64 {
	return median(append([]float64(nil), b.probes...)) / probeRefMs
}
