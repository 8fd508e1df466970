package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"polardb/internal/cluster"
	"polardb/internal/rdma"
	"polardb/internal/workload"
)

// bench is one workload: the cluster it runs on, how that cluster is
// loaded, the closed-loop client each session runs, and the correctness
// check that runs once the clients have stopped.
type bench interface {
	config() cluster.Config
	load(c *cluster.Cluster) error
	// warm runs once after setup, before the timed warm-up loop.
	warm(c *cluster.Cluster) error
	client(c *cluster.Cluster, s *cluster.Session, rng *rand.Rand, id int) client
	check(c *cluster.Cluster) error
	// spec is the workload generator's configuration, for provenance.
	spec() any
}

// client issues one operation per do call and names the call it made
// into cluster or workload; write marks read-write transactions and
// updates.
type client interface {
	do() (call string, write bool, err error)
}

// sessions is the closed-loop client count of every workload: the
// fabric's injected delays busy-spin, so more sessions than cores would
// measure the host scheduler.
const sessions = 2

// baseConfig is the cluster every workload starts from: the paper's
// fabric latency model, checkpoints on, failure detection off (the
// benchmark drives no failover), and lock waits that resolve deadlocks
// by a fast timeout.
func baseConfig() cluster.Config {
	return cluster.Config{
		Fabric:             rdma.DefaultConfig(),
		SlabPages:          256,
		CheckpointInterval: 200 * time.Millisecond,
		LockWait:           50 * time.Millisecond,
		HeartbeatInterval:  time.Hour,
	}
}

func newBench(name string) (bench, error) {
	switch name {
	case "tpcc-remote":
		return &tpccBench{tp: workload.TPCC{Warehouses: 2, Districts: 10, Customers: 200, Items: 8000}}, nil
	case "replica-rw":
		return &replicaBench{sb: workload.Sysbench{Rows: 20000, PayloadSize: rowSize}}, nil
	case "tpch-spill":
		return &tpchBench{h: workload.TPCH{SF: 3}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tpcc-remote, replica-rw or tpch-spill)", name)
}

// tpccBench: TPC-C on the RW alone. ≈1,330 data pages miss the
// 256-page local cache but fit the 1,536-page pool, so reads go to
// remote memory and every commit takes the redo path
// plog → polarfs → parallelraft.
type tpccBench struct {
	tp        workload.TPCC
	newOrders atomic.Uint64 // committed New-Orders since load
}

func (b *tpccBench) config() cluster.Config {
	cfg := baseConfig()
	cfg.LocalCachePages = 256
	cfg.MemorySlabs = 6
	return cfg
}

func (b *tpccBench) spec() any { return b.tp }

func (b *tpccBench) load(c *cluster.Cluster) error { return b.tp.Load(c) }
func (b *tpccBench) warm(*cluster.Cluster) error   { return nil }

func (b *tpccBench) client(_ *cluster.Cluster, s *cluster.Session, rng *rand.Rand, _ int) client {
	return &tpccClient{b: b, s: s, rng: rng}
}

func (b *tpccBench) check(c *cluster.Cluster) error {
	s := c.Proxy.Connect()
	defer s.Close()
	return checkTPCC(s.Get, b.tp.Warehouses, b.tp.Districts, b.newOrders.Load())
}

type tpccClient struct {
	b   *tpccBench
	s   *cluster.Session
	rng *rand.Rand
}

// do draws the standard 45/43/4/4/4 mix itself, so each transaction type
// is its own call (and span).
func (cl *tpccClient) do() (string, bool, error) {
	tp := &cl.b.tp
	switch p := cl.rng.Intn(100); {
	case p < 45:
		_, err := tp.NewOrder(cl.s, cl.rng)
		if err == nil {
			cl.b.newOrders.Add(1)
		}
		return "workload.NewOrder", true, err
	case p < 88:
		return "workload.Payment", true, tp.Payment(cl.s, cl.rng)
	case p < 92:
		return "workload.OrderStatus", false, tp.OrderStatus(cl.s, cl.rng)
	case p < 96:
		return "workload.Delivery", true, tp.Delivery(cl.s, cl.rng)
	default:
		_, err := tp.StockLevel(cl.s, cl.rng)
		return "workload.StockLevel", false, err
	}
}

// replicaBench: a 20k-row sysbench table held by the pool, one RO node.
// 75% autocommit point gets (routed to the RO) and 25% autocommit
// single-row updates (routed to the RW), so RO pages really are
// invalidated while readers hold them.
type replicaBench struct {
	sb      workload.Sysbench
	clients []*replicaClient
}

func (b *replicaBench) config() cluster.Config {
	cfg := baseConfig()
	cfg.RONodes = 1
	cfg.LocalCachePages = 128
	cfg.MemorySlabs = 8
	return cfg
}

func (b *replicaBench) spec() any { return b.sb }

func (b *replicaBench) load(c *cluster.Cluster) error { return b.sb.Load(c) }
func (b *replicaBench) warm(*cluster.Cluster) error   { return nil }

func (b *replicaBench) client(_ *cluster.Cluster, s *cluster.Session, rng *rand.Rand, id int) client {
	cl := &replicaClient{s: s, rng: rng, id: uint64(id), rows: b.sb.Rows, last: map[uint64]uint64{}}
	b.clients = append(b.clients, cl)
	return cl
}

// check waits up to catchUp for the RO to apply the last updates.
func (b *replicaBench) check(c *cluster.Cluster) error {
	last := map[uint64]uint64{}
	for _, cl := range b.clients {
		for k, seq := range cl.last {
			last[k] = seq
		}
	}
	s := c.Proxy.Connect()
	defer s.Close()
	return checkLastWrites(s.Get, last, 10*time.Second)
}

// replicaClient updates only keys ≡ id (mod sessions), so each key's
// last committed value is known without ordering the two writers.
type replicaClient struct {
	s    *cluster.Session
	rng  *rand.Rand
	id   uint64
	rows uint64
	seq  uint64
	last map[uint64]uint64 // key -> seq of its last committed update
}

func (cl *replicaClient) do() (string, bool, error) {
	if cl.rng.Intn(4) == 0 {
		key := uint64(cl.rng.Int63n(int64(cl.rows/sessions)))*sessions + cl.id
		cl.seq++
		err := cl.s.Exec(workload.TableName, cluster.OpUpdate, key, updateRow(key, cl.seq))
		if err == nil {
			cl.last[key] = cl.seq
		}
		return "cluster.Exec", true, err
	}
	key := uint64(cl.rng.Int63n(int64(cl.rows)))
	val, ok, err := cl.s.Get(workload.TableName, key)
	if err == nil {
		err = checkRow(key, val, ok)
	}
	return "cluster.Get", false, err
}

// tpchBench: TPC-H SF 3 (≈1,420 pages) on the RW with a 128-page cache
// and a 1,024-page pool, so reads split between remote memory and
// storage; BKP prefetch is on. It runs no MTR: no redo, no invalidation.
type tpchBench struct {
	h workload.TPCH
}

// tpchCycle is the fixed query cycle; each session starts at a
// seed-drawn position in it.
var tpchCycle = []string{"Q3", "Q4", "Q10", "Q12", "Q17", "Q18"}

func (b *tpchBench) config() cluster.Config {
	cfg := baseConfig()
	cfg.LocalCachePages = 128
	cfg.MemorySlabs = 4
	return cfg
}

func (b *tpchBench) spec() any { return b.h }

func (b *tpchBench) load(c *cluster.Cluster) error { return b.h.Load(c) }

// warm runs the cycle once with BKP off and checks each query's rows.
func (b *tpchBench) warm(c *cluster.Cluster) error {
	s := c.Proxy.Connect()
	defer s.Close()
	for _, q := range tpchCycle {
		rows, err := b.h.Run(q, s, workload.QueryOpts{})
		if err != nil {
			return fmt.Errorf("%s without BKP: %w", q, err)
		}
		if err := checkQueryRows(q, rows); err != nil {
			return err
		}
	}
	return nil
}

func (b *tpchBench) client(c *cluster.Cluster, s *cluster.Session, rng *rand.Rand, _ int) client {
	return &tpchClient{h: &b.h, s: s, pos: rng.Intn(len(tpchCycle)),
		opts: workload.QueryOpts{BKP: true, Engine: c.RW.Engine}}
}

func (b *tpchBench) check(*cluster.Cluster) error { return nil } // every query is checked as it returns

type tpchClient struct {
	h    *workload.TPCH
	s    *cluster.Session
	pos  int
	opts workload.QueryOpts
}

func (cl *tpchClient) do() (string, bool, error) {
	q := tpchCycle[cl.pos]
	cl.pos = (cl.pos + 1) % len(tpchCycle)
	rows, err := cl.h.Run(q, cl.s, cl.opts)
	if err == nil {
		err = checkQueryRows(q, rows)
	}
	return "workload." + q, false, err
}
