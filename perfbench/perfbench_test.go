package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/stat"
	"polardb/internal/txn"
	"polardb/internal/workload"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // exactly 10 beyond
		{99, 0.9, 90, false}, // 9 beyond
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// flaky fails every third op with a lock timeout, or with err if set.
type flaky struct {
	n   int
	err error
}

func (f *flaky) do() (string, bool, error) {
	f.n++
	if f.n%3 == 0 {
		if f.err != nil {
			return "flaky", true, f.err
		}
		return "flaky", true, fmt.Errorf("wrapped: %w", txn.ErrLockTimeout)
	}
	return "flaky", f.n%2 == 0, nil
}

func TestFailedRatioCountsLockTimeoutsOnly(t *testing.T) {
	a, b := &flaky{}, &flaky{}
	w, err := drive([]client{a, b}, 20*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.attempted != a.n+b.n {
		t.Fatalf("attempted %d, clients ran %d ops", w.attempted, a.n+b.n)
	}
	if w.failed != a.n/3+b.n/3 || w.attempted-w.failed != len(w.samples) {
		t.Fatalf("failed %d of %d with %d samples", w.failed, w.attempted, len(w.samples))
	}
	if got := failedRatio(w.attempted, w.failed); got != float64(w.failed)/float64(w.attempted) {
		t.Fatalf("failedRatio = %v", got)
	}
	if failedRatio(0, 0) != 0 {
		t.Fatal("failedRatio of nothing attempted must be 0")
	}

	boom := errors.New("boom")
	if _, err := drive([]client{&flaky{err: boom}}, time.Second, false); !errors.Is(err, boom) {
		t.Fatalf("a non-lock error must fail the run, got %v", err)
	}
}

// tpccStore is a fake TPC-C warehouse/district table for checkTPCC.
type tpccStore map[string]map[uint64][]byte

func (s tpccStore) get(table string, key uint64) ([]byte, bool, error) {
	v, ok := s[table][key]
	return v, ok, nil
}

func fields(vs ...uint64) []byte {
	b := make([]byte, 8*len(vs)+16)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

func TestCheckTPCCRejectsCorruption(t *testing.T) {
	build := func() tpccStore {
		s := tpccStore{workload.TWarehouse: {}, workload.TDistrict: {}}
		for w := uint64(1); w <= 2; w++ {
			s[workload.TWarehouse][w] = fields(300 * w)
			for d := uint64(1); d <= 3; d++ {
				// next_oid, ytd, delivered: 3 orders and 100*w YTD per district.
				s[workload.TDistrict][w*100+d] = fields(4, 100*w, 0)
			}
		}
		return s
	}
	if err := checkTPCC(build().get, 2, 3, 18); err != nil {
		t.Fatalf("consistent data rejected: %v", err)
	}
	corrupt := map[string]func(tpccStore) uint64{
		"W_YTD":            func(s tpccStore) uint64 { s[workload.TWarehouse][2] = fields(599); return 18 },
		"D_YTD":            func(s tpccStore) uint64 { s[workload.TDistrict][102] = fields(4, 99, 0); return 18 },
		"next_oid":         func(s tpccStore) uint64 { s[workload.TDistrict][203] = fields(5, 200, 0); return 18 },
		"committed count":  func(s tpccStore) uint64 { return 17 },
		"missing district": func(s tpccStore) uint64 { delete(s[workload.TDistrict], 201); return 18 },
		"short row":        func(s tpccStore) uint64 { s[workload.TWarehouse][1] = []byte{1}; return 18 },
	}
	for name, f := range corrupt {
		s := build()
		committed := f(s)
		if err := checkTPCC(s.get, 2, 3, committed); !errors.Is(err, errCheck) {
			t.Errorf("%s: got %v, want a check failure", name, err)
		}
	}
}

func TestCheckRowRejectsCorruption(t *testing.T) {
	if err := checkRow(7, loadedRow(7), true); err != nil {
		t.Fatalf("loaded row rejected: %v", err)
	}
	if err := checkRow(7, updateRow(7, 3), true); err != nil {
		t.Fatalf("update row rejected: %v", err)
	}
	flipped := updateRow(7, 3)
	flipped[40] ^= 1
	loadedFlip := loadedRow(7)
	loadedFlip[0] ^= 1
	for name, c := range map[string]struct {
		val   []byte
		found bool
	}{
		"missing":        {nil, false},
		"short":          {updateRow(7, 3)[:60], true},
		"bad checksum":   {flipped, true},
		"other key":      {updateRow(8, 3), true},
		"corrupt loaded": {loadedFlip, true},
	} {
		if err := checkRow(7, c.val, c.found); !errors.Is(err, errCheck) {
			t.Errorf("%s: got %v, want a check failure", name, err)
		}
	}
}

func TestCheckLastWritesRejectsStaleValue(t *testing.T) {
	rows := map[uint64][]byte{1: updateRow(1, 5), 3: updateRow(3, 2)}
	get := func(_ string, key uint64) ([]byte, bool, error) {
		v, ok := rows[key]
		return v, ok, nil
	}
	if err := checkLastWrites(get, map[uint64]uint64{1: 5, 3: 2}, 0); err != nil {
		t.Fatalf("current values rejected: %v", err)
	}
	if err := checkLastWrites(get, map[uint64]uint64{1: 6}, 0); !errors.Is(err, errCheck) {
		t.Fatalf("stale value: got %v, want a check failure", err)
	}
}

func TestCheckQueryRowsRejectsWrongCount(t *testing.T) {
	for q, n := range tpchRows {
		if err := checkQueryRows(q, n); err != nil {
			t.Errorf("%s: %v", q, err)
		}
		if err := checkQueryRows(q, n+1); !errors.Is(err, errCheck) {
			t.Errorf("%s with one extra row: got %v, want a check failure", q, err)
		}
	}
	if err := checkQueryRows("Q99", 0); !errors.Is(err, errCheck) {
		t.Errorf("unknown query: got %v", err)
	}
}

func TestPerLayerKeepsBaseCounts(t *testing.T) {
	d := stat.Snapshot{
		Counters: map[string]uint64{
			"rdma.rpc.ops": 10, "rdma.rpc.bytes": 4096,
			"rmem.invalidate.sent": 6, "engine.mtr.commit": 6, "rmem.invalidate.sent_pages": 9,
			"engine.page.local_hit": 30, "engine.page.remote_read": 8, "engine.page.storage_read": 2,
		},
		Histograms: map[string]stat.HistSnapshot{"rdma.rpc.us": {Count: 10, SumNS: 1_000_000}},
	}
	m := perLayer(d, 4, rdma.DefaultConfig())
	for name, want := range map[string]metric{
		"rdma.rpc.per_op":                 {Value: 2.5, Unit: "1/op", Num: 10, Den: 4},
		"rdma.rpc.mean_us":                {Value: 100, Unit: "us", Num: 1000, Den: 10},
		"rmem.invalidate.sent_per_mtr":    {Value: 1, Unit: "1/mtr", Num: 6, Den: 6},
		"rmem.invalidate.pages_per_batch": {Value: 1.5, Unit: "1/batch", Num: 9, Den: 6},
		"engine.local_hit_ratio":          {Value: 0.75, Unit: "ratio", Num: 30, Den: 40},
		"engine.pages_per_op":             {Value: 10, Unit: "1/op", Num: 40, Den: 4},
		// 10 × 5µs + 4 KiB × 0.3µs = 51.2µs of the 1ms recorded.
		"rdma.rpc.model_share": {Value: 0.0512, Unit: "ratio", Num: 51200, Den: 1_000_000},
		// No MTR ran: the ratio is 0 over an empty base, not NaN.
		"plog.records_per_mtr": {Unit: "1/mtr"},
	} {
		got := m[name]
		if got.Unit != want.Unit || got.Num != want.Num || got.Den != want.Den ||
			got.Value < want.Value-1e-9 || got.Value > want.Value+1e-9 {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}
}

// TestDeclaredMetrics keeps BENCHMARK.json and the program in step: the
// metric names it declares are the ones the result line carries, and
// each declared workload exists.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if got, want := names(decl.EndToEnd), sorted(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end declares %v, program reports %v", got, want)
	}
	if got, want := names(decl.PerLayer), sorted(perLayerNames); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer declares %v, program reports %v", got, want)
	}
	for _, w := range names(decl.Workloads) {
		if _, err := newBench(w); err != nil {
			t.Error(err)
		}
	}
}

func TestCompareReportsMedianDeltas(t *testing.T) {
	write := func(dir, name string, ops float64) {
		r := result{Workload: "replica-rw",
			EndToEnd: map[string]metric{"ops_per_s": {Value: ops, Unit: "1/s"}},
			PerLayer: map[string]metric{"rdma.rpc.per_op": {Value: ops / 1000, Unit: "1/op"}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/"+name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base, next := t.TempDir(), t.TempDir()
	write(base, "a.json", 1000)
	write(base, "b.json", 3000)
	write(base, "c.json", 2000)
	write(next, "a.json", 2200)
	var out strings.Builder
	if err := compareResults(&out, base, next); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replica-rw (runs: base 3, new 1", "e2e/ops_per_s", "+10.0%", "layer/rdma.rpc.per_op"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
