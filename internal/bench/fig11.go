package bench

import (
	"fmt"
	"math/rand"
	"time"

	"polardb/internal/cluster"
	"polardb/internal/stat"
	"polardb/internal/workload"
)

// Fig11 reproduces Figure 11: mixed read/write throughput plus the number
// of pages swapped between local and remote memory, sweeping the local
// memory size (paper: 0.5-24 GB) with the remote pool fixed large enough
// for the dataset. Three panels: (a) sysbench uniform, (b) sysbench
// skewed, (c) TPC-C.
func Fig11(sc Scale) (*Result, error) {
	sizesGB := []float64{0.5, 1, 2, 4, 8, 24}
	dur := 1500 * time.Millisecond
	rows := uint64(20000)
	if sc.Small {
		sizesGB = []float64{0.5, 2, 8, 24}
		dur = 800 * time.Millisecond
		rows = 10000
	}
	res := &Result{ID: "fig11", Title: "throughput + pages swapped vs local memory size (GBeq)"}

	panels := []struct {
		name string
		run  func(prefix string, lmPages int) (float64, uint64, error)
	}{
		{"uniform", func(prefix string, lm int) (float64, uint64, error) {
			return fig11Sysbench(res, prefix, rows, workload.Uniform, lm, dur)
		}},
		{"skewed", func(prefix string, lm int) (float64, uint64, error) {
			return fig11Sysbench(res, prefix, rows, workload.Skewed, lm, dur)
		}},
		{"tpcc", func(prefix string, lm int) (float64, uint64, error) {
			return fig11TPCC(res, prefix, lm, dur, sc)
		}},
	}
	for _, p := range panels {
		qps := Series{Name: p.name + " QPS"}
		swapped := Series{Name: p.name + " pages swapped"}
		for _, gb := range sizesGB {
			q, sw, err := p.run(fmt.Sprintf("%s-LM%g/", p.name, gb), GBPages(gb))
			if err != nil {
				return nil, fmt.Errorf("fig11 %s lm=%v: %w", p.name, gb, err)
			}
			label := fmt.Sprintf("LM %g GBeq", gb)
			qps.Points = append(qps.Points, Point{Label: label, X: gb, Y: q})
			swapped.Points = append(swapped.Points, Point{Label: label, X: gb, Y: float64(sw)})
		}
		res.Series = append(res.Series, qps, swapped)
	}
	res.Notes = append(res.Notes,
		"expect: QPS grows and swapping vanishes as local memory approaches the working set;",
		"skewed and TPC-C curves flatten earlier (hot set fits sooner) than uniform")
	return res, nil
}

func fig11Cluster(lmPages int) (*cluster.Cluster, error) {
	return launch(cluster.Config{
		RONodes:            0,
		LocalCachePages:    lmPages,
		SlabPages:          256,
		MemorySlabs:        12, // 3072 pages = 48 GBeq: holds every dataset here
		CheckpointInterval: 200 * time.Millisecond,
		LockWait:           50 * time.Millisecond,
	})
}

func fig11Sysbench(res *Result, prefix string, rows uint64, dist workload.Distribution, lmPages int, dur time.Duration) (float64, uint64, error) {
	c, err := fig11Cluster(lmPages)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	sb := &workload.Sysbench{Rows: rows, Dist: dist, RangeSize: 20, PayloadSize: 96}
	if err := sb.Load(c); err != nil {
		return 0, 0, err
	}
	before := c.RW.EP.Metrics().Snapshot()
	qps, err := runQPS(c, 4, dur, func(s *cluster.Session, rng *rand.Rand) error {
		_, err := sb.ReadWriteTxn(s, rng)
		if ignorable(err) {
			return nil
		}
		return err
	})
	swapped := pagesSwapped(c, before)
	res.Capture(prefix, c)
	return qps, swapped, err
}

func fig11TPCC(res *Result, prefix string, lmPages int, dur time.Duration, sc Scale) (float64, uint64, error) {
	c, err := fig11Cluster(lmPages)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	tp := &workload.TPCC{Warehouses: 2, Districts: 10, Customers: 120, Items: 3000}
	if sc.Small {
		tp = &workload.TPCC{Warehouses: 1, Districts: 6, Customers: 60, Items: 1200}
	}
	if err := tp.Load(c); err != nil {
		return 0, 0, err
	}
	before := c.RW.EP.Metrics().Snapshot()
	tpm, err := runQPS(c, 4, dur, func(s *cluster.Session, rng *rand.Rand) error {
		_, err := tp.Mix(s, rng)
		if ignorable(err) {
			return nil
		}
		return err
	})
	swapped := pagesSwapped(c, before)
	res.Capture(prefix, c)
	return tpm * 60, swapped, err
}

// pagesSwapped is the RW node's traffic between local and lower tiers
// since before: pages filled from remote memory or storage plus frames
// evicted from the local cache.
func pagesSwapped(c *cluster.Cluster, before stat.Snapshot) uint64 {
	d := c.RW.EP.Metrics().Snapshot().Sub(before)
	return d.Counter("engine.page.remote_read") + d.Counter("engine.page.storage_read") + d.Counter("engine.page.evict")
}
