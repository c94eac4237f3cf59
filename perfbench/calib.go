package main

import (
	"math/big"
	"sort"
	"sync"
	"time"
)

// Host-speed yardstick. The machines this benchmark runs on share physical
// cores with other tenants, and their speed drifts by a quarter or more
// over tens of seconds. Every cycle is therefore followed by a fixed piece
// of work on all workers cores at once — 512-bit squarings modulo the SS512
// prime through math/big only, the same kind of work as the field
// arithmetic under the pairing, but no repository code, so no change to the
// program moves it. Timed metrics are reported in reference units: the
// measured time scaled by refYardstick over the yardstick time around it.

// refYardstick is the yardstick time on the machine the benchmark was
// written on (2-vCPU Xeon, go1.24): reference units read as milliseconds
// there.
const refYardstick = 2500 * time.Microsecond

// yardWindow is the number of cycles on each side whose yardsticks are
// pooled (by median) to normalize one cycle, so a yardstick that happens
// to overlap a GC cycle does not skew its neighbours.
const yardWindow = 3

var calibP, _ = new(big.Int).SetString("8780710799663312522437781984754049815806883199414208211028653399266475630880222957078625179422662221423155858769582317459277713367317481324925129998224791", 10)

const calibSquarings = 2000

func square() {
	x := big.NewInt(0x5ecc10d)
	for i := 0; i < calibSquarings; i++ {
		x.Mul(x, x)
		x.Mod(x, calibP)
		x.Add(x, big.NewInt(int64(i)))
	}
}

// calibrate runs the yardstick on workers goroutines and returns the time
// until all finished.
func calibrate() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			square()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// pooledYardsticks returns, per cycle, the median yardstick over the
// cycles within yardWindow of it.
func pooledYardsticks(cal []time.Duration) []time.Duration {
	out := make([]time.Duration, len(cal))
	win := make([]time.Duration, 0, 2*yardWindow+1)
	for i := range cal {
		win = append(win[:0], cal[max(0, i-yardWindow):min(len(cal), i+yardWindow+1)]...)
		sort.Slice(win, func(a, b int) bool { return win[a] < win[b] })
		out[i] = win[len(win)/2]
	}
	return out
}

// toRef converts a measured duration to reference units given the
// yardstick time it ran beside.
func toRef(d, yard time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refYardstick) / float64(yard))
}
