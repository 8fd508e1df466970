package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardb/internal/txn"
)

// span is one traced call from the benchmark into cluster or workload.
// Start and End are offsets from the traced window's start. The
// benchmark wraps only its own calls, so every span is a root (Parent 0)
// and its self time is its duration.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
}

// sample is one successful operation.
type sample struct {
	call   string
	write  bool
	traced bool
	dur    time.Duration
}

// window is what one closed-loop measurement saw.
type window struct {
	attempted, failed int
	samples           []sample
	spans             []span
	elapsed           time.Duration
}

// traceSlice is the period at which a traced run switches tracing on
// and off. Alternating, rather than tracing one half of the window,
// keeps drift over the window (the heap grows as it runs) out of the
// traced-vs-untraced ops/s ratio.
const traceSlice = time.Second

// tracedSlice reports whether an op starting at offset t is traced.
func tracedSlice(t time.Duration) bool { return (t/traceSlice)%2 == 1 }

// countable reports whether err is an abort the workload expects under
// contention (a row-lock wait timeout). Such an op counts as attempted
// and failed; any other error fails the run.
func countable(err error) bool { return errors.Is(err, txn.ErrLockTimeout) }

// drive runs every client in a closed loop until d has passed, then
// waits for the operations in flight. elapsed runs to the last one's
// end, so ops/s counts only completed work. With trace set, ops that
// start in every other traceSlice record a span.
func drive(clients []client, d time.Duration, trace bool) (window, error) {
	start := time.Now()
	results := make([]window, len(clients))
	errs := make([]error, len(clients))
	var opSeq atomic.Uint64
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl client) {
			defer wg.Done()
			w := &results[i]
			for time.Since(start) < d {
				t0 := time.Now()
				call, write, err := cl.do()
				t1 := time.Now()
				w.attempted++
				if err != nil {
					if countable(err) {
						w.failed++
						continue
					}
					errs[i] = fmt.Errorf("%s: %w", call, err)
					return
				}
				traced := trace && tracedSlice(t0.Sub(start))
				w.samples = append(w.samples, sample{call: call, write: write, traced: traced, dur: t1.Sub(t0)})
				if traced {
					w.spans = append(w.spans, span{Name: call, Start: int64(t0.Sub(start)),
						End: int64(t1.Sub(start)), Op: opSeq.Add(1)})
				}
			}
		}(i, cl)
	}
	wg.Wait()
	out := window{elapsed: time.Since(start)}
	for _, r := range results {
		out.attempted += r.attempted
		out.failed += r.failed
		out.samples = append(out.samples, r.samples...)
		out.spans = append(out.spans, r.spans...)
	}
	return out, errors.Join(errs...)
}

// tracingRatio is traced ops/s over untraced ops/s over n windows of d,
// counting each op in the slice it started in.
func tracingRatio(w window, d time.Duration, n int) metric {
	var traced, untraced float64
	for _, s := range w.samples {
		if s.traced {
			traced++
		} else {
			untraced++
		}
	}
	var tracedTime time.Duration
	for t := time.Duration(0); t < d; t += traceSlice {
		if tracedSlice(t) {
			tracedTime += min(traceSlice, d-t)
		}
	}
	tracedTime *= time.Duration(n)
	untracedTime := time.Duration(n)*d - tracedTime
	return ratio(ratio(traced, tracedTime.Seconds(), "").Value,
		ratio(untraced, untracedTime.Seconds(), "").Value, "ratio")
}
