// Command perfbench is the repository's benchmark. It launches a
// cluster.Cluster with the paper's fabric latency model, drives one
// workload (tpcc-remote, replica-rw or tpch-spill) in a closed loop from
// two sessions, checks the results, and prints one JSON line:
// end-to-end metrics with -trace 0, per-layer metrics with -trace 1.
// See README.md for the workloads, the metrics and the compare mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"polardb/internal/cluster"
	"polardb/internal/stat"
)

const (
	// trials is how many independent clusters a run sets up and
	// measures; per-trial figures are reported as their median.
	trials = 3
	// warmup runs the closed loop untimed on each trial's cluster so
	// caches fill first.
	warmup = time.Second
)

// endToEnd and perLayerNames are the metrics the last output line carries
// with -trace 0 and -trace 1; BENCHMARK.json declares the same names.
var endToEnd = []string{
	"setup_s", "ops_per_s", "p50_ms", "p90_ms", "read_p50_ms", "read_p90_ms", "heap_mb",
	"retained_kb_per_op",
}

var perLayerNames = []string{
	"rdma.rpc.per_op", "rdma.rpc.bytes_per_op", "rdma.rpc.mean_us", "rdma.rpc.model_share",
	"rdma.onesided.per_op", "rdma.onesided.mean_us",
	"rmem.invalidate.sent_per_mtr", "rmem.invalidate.pages_per_batch", "rmem.invalidate.recv_per_op",
	"rmem.home.inv_fanout_per_op", "rmem.register.per_op", "rmem.unregister.per_op",
	"rmem.page_read.per_op", "rmem.page_write.per_op", "rmem.home.hit_ratio",
	"rmem.home.evictions_per_op", "rmem.pl.slow_per_op", "rmem.pl.revoke_per_op",
	"engine.local_hit_ratio", "engine.pages_per_op", "engine.remote_read.per_op",
	"engine.storage_read.per_op", "engine.mtr.per_op", "engine.txn.abort_ratio",
	"engine.redo.records_per_flush", "engine.smo.latch_x_per_op", "engine.flush.served_per_op",
	"txn.cts.read_lsn.per_op", "txn.cts.lookup.per_op",
	"plog.records_per_mtr",
	"pfs.append_redo.per_op", "pfs.get_page.per_op", "pfs.get_page.mean_us",
	"pfs.ship.records_per_op", "pfs.chunk.add_batches_per_op",
	"raft.propose.per_op", "raft.propose.mean_us", "raft.append.served_per_op",
	"trace.ops_ratio",
}

// result is everything one run measured; it is written to the results
// directory and read back by -compare.
type result struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	CheckError string            `json:"check_error,omitempty"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`
	Spans      map[string]metric `json:"spans,omitempty"`
	// Trials lists each trial's setup seconds and ops/s, for diagnosis.
	Trials [][2]float64 `json:"trials,omitempty"`
}

type provenance struct {
	GitSHA     string         `json:"git_sha"`
	Dirty      bool           `json:"dirty"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Sessions   int            `json:"sessions"`
	Cluster    cluster.Config `json:"cluster"` // includes the fabric profile
	Workload   any            `json:"workload"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "tpcc-remote, replica-rw or tpch-spill")
	seed := fs.Int64("seed", 1, "seed of the client random streams")
	seconds := fs.Int("seconds", 24, "measured seconds, split evenly between the trials")
	trace := fs.Int("trace", 0, "1: report per-layer metrics and record spans")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	compare := fs.Bool("compare", false, "print per-layer deltas between two result files or directories (the arguments)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench -compare BASE NEW")
			return 2
		}
		if err := compareResults(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	res, spans, err := measure(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := save(*out, res, spans); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// trial is one cluster's share of a run: its setup time, its measured
// window, the live heap at the window's edges, the metric delta over
// the window, and the check that failed after it, if any. A trial whose
// final check fails is still measured, so an incorrect run prints its
// tables.
type trial struct {
	setup        float64
	win          window
	heap0, heap1 uint64
	delta        stat.Snapshot
	checkErr     error
}

// measure runs one workload as `trials` independent trials, each on a
// freshly launched and loaded cluster, and splits the measured seconds
// between them. Fresh clusters keep the live heap, which grows with every
// redo write, from piling up over the whole run; the GC work that heap
// causes is the largest source of run-to-run spread.
func measure(name string, seed int64, seconds int, trace bool) (*result, []span, error) {
	b, err := newBench(name)
	if err != nil {
		return nil, nil, err
	}
	cfg := b.config()
	res := &result{Workload: name, Trace: trace, Correct: true,
		Provenance: newProvenance(seed, seconds, cfg, b)}
	rng := rand.New(rand.NewSource(seed))
	dur := time.Duration(seconds) * time.Second / trials
	var ts []trial
	for i := 0; i < trials; i++ {
		if i > 0 {
			if b, err = newBench(name); err != nil {
				return nil, nil, err
			}
		}
		t, err := runTrial(b, rng, dur, trace)
		if errors.Is(err, errCheck) {
			res.Correct, res.CheckError = false, err.Error()
			res.Attempted = max(1, t.win.attempted)
			return res, nil, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("trial %d: %w", i+1, err)
		}
		if t.checkErr != nil && res.Correct {
			res.Correct, res.CheckError = false, t.checkErr.Error()
		}
		ts = append(ts, t)
	}

	var all window
	deltas := map[string]stat.Snapshot{}
	for i, t := range ts {
		all.attempted += t.win.attempted
		all.failed += t.win.failed
		all.samples = append(all.samples, t.win.samples...)
		all.spans = append(all.spans, t.win.spans...)
		deltas[fmt.Sprint(i)] = t.delta
		res.Trials = append(res.Trials, [2]float64{t.setup, opsPerSec(t.win)})
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	if res.EndToEnd, err = endToEndMetrics(ts, all); err != nil {
		return nil, nil, err
	}
	res.PerLayer = perLayer(stat.Total(deltas), len(all.samples), cfg.Fabric)
	if trace {
		res.PerLayer["trace.ops_ratio"] = tracingRatio(all, dur, trials)
		res.Spans = spanTable(all.spans)
	}
	return res, all.spans, nil
}

// runTrial launches and loads a cluster, warms it up, measures one
// window of d and checks the results. A check that fails before the
// window is complete comes back as an error wrapping errCheck.
func runTrial(b bench, rng *rand.Rand, d time.Duration, trace bool) (trial, error) {
	var t trial
	start := time.Now()
	c, err := cluster.Launch(b.config())
	if err != nil {
		return t, fmt.Errorf("launch: %w", err)
	}
	defer c.Close()
	if err := b.load(c); err != nil {
		return t, fmt.Errorf("load: %w", err)
	}
	t.setup = time.Since(start).Seconds()
	if err := b.warm(c); err != nil {
		return t, fmt.Errorf("warm: %w", err)
	}
	clients := make([]client, sessions)
	for i := range clients {
		s := c.Proxy.Connect()
		defer s.Close()
		clients[i] = b.client(c, s, rand.New(rand.NewSource(rng.Int63())), i)
	}
	if _, err := drive(clients, warmup, false); err != nil {
		return t, fmt.Errorf("warm-up: %w", err)
	}

	t.heap0 = liveHeap()
	snap0 := stat.Total(c.Fabric.Metrics().Snapshot())
	t.win, err = drive(clients, d, trace)
	if err != nil {
		return t, err
	}
	t.delta = stat.Total(c.Fabric.Metrics().Snapshot()).Sub(snap0)
	t.heap1 = liveHeap()
	if err := b.check(c); errors.Is(err, errCheck) {
		t.checkErr = err
	} else if err != nil {
		return t, fmt.Errorf("check: %w", err)
	}
	return t, nil
}

func opsPerSec(w window) float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(len(w.samples)) / w.elapsed.Seconds()
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// endToEndMetrics computes every end-to-end metric the run can state.
// setup_s, ops_per_s and heap_mb are medians over the trials; the
// latency percentiles pool every trial's samples. write_* exist only
// when the workload writes; a percentile without minBeyond samples
// beyond it fails the run.
func endToEndMetrics(ts []trial, w window) (map[string]metric, error) {
	var setups, rates, heaps []float64
	var growth float64
	for _, t := range ts {
		setups = append(setups, t.setup)
		rates = append(rates, opsPerSec(t.win))
		heaps = append(heaps, float64(t.heap0)/(1<<20))
		growth += (float64(t.heap1) - float64(t.heap0)) / 1024
	}
	var all, reads, writes []time.Duration
	for _, s := range w.samples {
		all = append(all, s.dur)
		if s.write {
			writes = append(writes, s.dur)
		} else {
			reads = append(reads, s.dur)
		}
	}
	m := map[string]metric{
		"setup_s":   {Value: median(setups), Unit: "s", Samples: len(setups)},
		"ops_per_s": {Value: median(rates), Unit: "1/s", Samples: len(all)},
		"heap_mb":   {Value: median(heaps), Unit: "MB", Samples: len(heaps)},
		"failed_ratio": {Value: failedRatio(w.attempted, w.failed), Unit: "ratio",
			Num: float64(w.failed), Den: float64(w.attempted)},
		"retained_kb_per_op": ratio(growth, float64(len(all)), "KB/op"),
	}
	for _, g := range []struct {
		prefix string
		ds     []time.Duration
	}{{"", all}, {"read_", reads}, {"write_", writes}} {
		if g.prefix == "write_" && len(g.ds) == 0 {
			continue
		}
		ms := latencies(g.ds)
		for _, p := range []struct {
			name string
			q    float64
		}{{"p50_ms", 0.5}, {"p90_ms", 0.9}} {
			v, ok := percentile(ms, p.q)
			if !ok {
				return nil, fmt.Errorf("%s%s: %d samples leave fewer than %d beyond it; lengthen the run",
					g.prefix, p.name, len(ms), minBeyond)
			}
			m[g.prefix+p.name] = metric{Value: v, Unit: "ms", Samples: len(ms)}
		}
	}
	return m, nil
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return ys[len(ys)/2]
}

// spanTable summarises spans per call name: count, mean duration and
// share of all traced time. Spans do not nest, so self time = duration.
func spanTable(spans []span) map[string]metric {
	total := map[string]float64{}
	count := map[string]int{}
	var all float64
	for _, s := range spans {
		d := float64(s.End - s.Start)
		total[s.Name] += d
		count[s.Name]++
		all += d
	}
	out := map[string]metric{}
	for name, t := range total {
		out[name+".mean_ms"] = metric{Value: t / float64(count[name]) / 1e6, Unit: "ms", Samples: count[name]}
		out[name+".time_share"] = ratio(t, all, "ratio")
	}
	return out
}

func newProvenance(seed int64, seconds int, cfg cluster.Config, b bench) provenance {
	p := provenance{
		GitSHA: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Sessions: sessions,
		Cluster: cfg, Workload: b.spec(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitSHA = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// save writes the full result, and the spans of a traced run, under dir.
func save(dir string, res *result, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if res.Trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", res.Workload, res.Provenance.Seed, trace))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// report prints the human-readable tables, then the result line: the
// last line of standard output, carrying exactly the declared metrics.
func report(w io.Writer, res *result) error {
	fmt.Fprintf(w, "workload %s  seed %d  %ds  sessions %d  git %s dirty=%v  %s  GOMAXPROCS %d  NumCPU %d\n",
		res.Workload, res.Provenance.Seed, res.Provenance.Seconds, res.Provenance.Sessions,
		res.Provenance.GitSHA, res.Provenance.Dirty, res.Provenance.GoVersion,
		res.Provenance.GOMAXPROCS, res.Provenance.NumCPU)
	if !res.Correct {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", res.CheckError)
	}
	printTable(w, "end-to-end", res.EndToEnd)
	printTable(w, "per-layer (layer times nest, e.g. pfs.append_redo ⊂ rdma.rpc: do not sum them; rdma.rpc.model_share is an estimate)", res.PerLayer)
	if len(res.Spans) > 0 {
		printTable(w, fmt.Sprintf("traced calls (every other %v of the window; spans are roots, self time = duration)", traceSlice), res.Spans)
	}
	names := endToEnd
	metrics := res.EndToEnd
	if res.Trace {
		names, metrics = perLayerNames, res.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	if res.Correct {
		for _, n := range names {
			line.Metrics[n] = value{metrics[n].Value, metrics[n].Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

func printTable(w io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(w, "-- %s\n", title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		fmt.Fprintf(w, "  %-34s %14.6g %-7s", n, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(w, " n=%d", v.Samples)
		}
		if v.Den != 0 || v.Num != 0 {
			fmt.Fprintf(w, " (%.6g / %.6g)", v.Num, v.Den)
		}
		fmt.Fprintln(w)
	}
}
