package main

import (
	"math"
	"sort"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/stat"
)

// metric is one reported number. Samples is the sample count behind a
// timing; Num and Den are the base counts behind a ratio.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Num     float64 `json:"num,omitempty"`
	Den     float64 `json:"den,omitempty"`
}

// minBeyond is how many samples must lie beyond a reported percentile:
// a percentile with fewer is not reported (the run fails instead).
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples and
// whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// latencies sorts durations into milliseconds.
func latencies(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// failedRatio is failed ÷ attempted.
func failedRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ratio is a metric with its base counts; 0 when the base is empty.
func ratio(num, den float64, unit string) metric {
	m := metric{Unit: unit, Num: num, Den: den}
	if den != 0 {
		m.Value = num / den
	}
	return m
}

// meanUS is a histogram's mean in microseconds, with its count as base.
func meanUS(h stat.HistSnapshot) metric {
	return ratio(float64(h.SumNS)/1e3, float64(h.Count), "us")
}

// perLayer derives the per-layer metrics from the cluster-wide metric
// delta d over a window in which ops operations succeeded. Every value is
// read from the stat registry; counts are normalised per successful op
// (or per MTR, per batch) and keep their base counts.
func perLayer(d stat.Snapshot, ops int, fabric rdma.Config) map[string]metric {
	c := func(name string) float64 { return float64(d.Counter(name)) }
	n := float64(ops)
	perOp := func(name string) metric { return ratio(c(name), n, "1/op") }
	m := map[string]metric{}

	// rdma
	m["rdma.rpc.per_op"] = perOp("rdma.rpc.ops")
	m["rdma.rpc.bytes_per_op"] = ratio(c("rdma.rpc.bytes"), n, "B/op")
	rpc := d.Histograms["rdma.rpc.us"]
	m["rdma.rpc.mean_us"] = meanUS(rpc)
	// Estimate: the delay the latency model injects for the window's RPCs
	// (ops × RPC + ⌈bytes/KiB⌉ × PerKB, rounding once over the total)
	// over the RPC time recorded; the rest is host waiting and handler work.
	model := c("rdma.rpc.ops")*float64(fabric.RPC) +
		math.Ceil(c("rdma.rpc.bytes")/1024)*float64(fabric.PerKB)
	m["rdma.rpc.model_share"] = ratio(model*fabric.TimeScale, float64(rpc.SumNS), "ratio")
	var one stat.HistSnapshot
	for _, v := range []string{"rdma.read", "rdma.write", "rdma.atomic"} {
		h := d.Histograms[v+".us"]
		one.Count += h.Count
		one.SumNS += h.SumNS
	}
	m["rdma.onesided.per_op"] = ratio(float64(one.Count), n, "1/op")
	m["rdma.onesided.mean_us"] = meanUS(one)

	// rmem
	m["rmem.invalidate.sent_per_mtr"] = ratio(c("rmem.invalidate.sent"), c("engine.mtr.commit"), "1/mtr")
	m["rmem.invalidate.pages_per_batch"] = ratio(c("rmem.invalidate.sent_pages"), c("rmem.invalidate.sent"), "1/batch")
	m["rmem.invalidate.recv_per_op"] = perOp("rmem.invalidate.recv")
	m["rmem.home.inv_fanout_per_op"] = perOp("rmem.home.inv_fanout")
	m["rmem.register.per_op"] = perOp("rmem.register.ops")
	m["rmem.unregister.per_op"] = perOp("rmem.unregister.ops")
	m["rmem.page_read.per_op"] = perOp("rmem.page_read.ops")
	m["rmem.page_write.per_op"] = perOp("rmem.page_write.ops")
	m["rmem.home.hit_ratio"] = ratio(c("rmem.home.hits"), c("rmem.home.registers"), "ratio")
	m["rmem.home.evictions_per_op"] = perOp("rmem.home.evictions")
	m["rmem.pl.slow_per_op"] = perOp("rmem.pl.slow")
	m["rmem.pl.revoke_per_op"] = perOp("rmem.pl.revoke")

	// engine (local cache tier and btree included)
	local, remote, storage := c("engine.page.local_hit"), c("engine.page.remote_read"), c("engine.page.storage_read")
	m["engine.local_hit_ratio"] = ratio(local, local+remote+storage, "ratio")
	m["engine.pages_per_op"] = ratio(local+remote+storage, n, "1/op")
	m["engine.remote_read.per_op"] = perOp("engine.page.remote_read")
	m["engine.storage_read.per_op"] = perOp("engine.page.storage_read")
	m["engine.mtr.per_op"] = perOp("engine.mtr.commit")
	m["engine.txn.abort_ratio"] = ratio(c("engine.txn.abort"), c("engine.txn.commit")+c("engine.txn.abort"), "ratio")
	m["engine.redo.records_per_flush"] = ratio(c("engine.redo.flush.records"), c("engine.redo.flush.batches"), "1/flush")
	m["engine.smo.latch_x_per_op"] = perOp("engine.smo.latch_x")
	m["engine.flush.served_per_op"] = perOp("engine.flush.served")

	// txn
	m["txn.cts.read_lsn.per_op"] = perOp("txn.cts.read_lsn.ops")
	m["txn.cts.lookup.per_op"] = perOp("txn.cts.lookup.ops")

	// plog
	m["plog.records_per_mtr"] = ratio(c("plog.append.records"), c("plog.append.mtrs"), "1/mtr")

	// polarfs
	m["pfs.append_redo.per_op"] = perOp("pfs.append_redo.ops")
	m["pfs.append_redo.mean_us"] = meanUS(d.Histograms["pfs.append_redo.us"])
	m["pfs.get_page.per_op"] = perOp("pfs.get_page.ops")
	m["pfs.get_page.mean_us"] = meanUS(d.Histograms["pfs.get_page.us"])
	m["pfs.ship.records_per_op"] = perOp("pfs.ship.records")
	m["pfs.chunk.add_batches_per_op"] = perOp("pfs.chunk.add_batches")

	// parallelraft
	m["raft.propose.per_op"] = perOp("raft.propose.ops")
	m["raft.propose.mean_us"] = meanUS(d.Histograms["raft.propose.us"])
	m["raft.append.served_per_op"] = perOp("raft.append.served")
	return m
}
