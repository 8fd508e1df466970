package rdma

import (
	"time"

	"polardb/internal/stat"
)

type opClass int

const (
	opRead opClass = iota
	opWrite
	opAtomic
	opRPC
	numOpClasses
)

// verbNames are the per-verb metric name stems under which each
// endpoint records its traffic (see DESIGN.md "Observability").
var verbNames = [numOpClasses]string{
	opRead:   "rdma.read",
	opWrite:  "rdma.write",
	opAtomic: "rdma.atomic",
	opRPC:    "rdma.rpc",
}

// verbMetrics are one endpoint's per-verb issue counters: ops, bytes
// moved, and end-to-end verb latency (injected fabric delay plus data
// copy) of successful verbs, and the count of failed ones. Handles are
// resolved once at attach time.
type verbMetrics struct {
	ops   [numOpClasses]*stat.Counter
	bytes [numOpClasses]*stat.Counter
	lat   [numOpClasses]*stat.Histogram
	err   [numOpClasses]*stat.Counter
}

func newVerbMetrics(r *stat.Registry) *verbMetrics {
	m := &verbMetrics{}
	for c := opClass(0); c < numOpClasses; c++ {
		m.ops[c] = r.Counter(verbNames[c] + ".ops")
		m.bytes[c] = r.Counter(verbNames[c] + ".bytes")
		m.lat[c] = r.Histogram(verbNames[c] + ".us")
		m.err[c] = r.Counter(verbNames[c] + ".err")
	}
	return m
}

// record counts one successful verb on the endpoint.
func (e *Endpoint) record(c opClass, n int, start time.Time) {
	e.verbs.ops[c].Inc()
	e.verbs.bytes[c].Add(uint64(n))
	e.verbs.lat[c].Observe(time.Since(start))
}

// fail counts one failed verb on the endpoint and returns err.
func (e *Endpoint) fail(c opClass, err error) error {
	e.verbs.err[c].Inc()
	return err
}
