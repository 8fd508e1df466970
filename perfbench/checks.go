package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"polardb/internal/retry"
	"polardb/internal/workload"
)

// errCheck marks a correctness-check failure: the run reports
// "correct": false instead of aborting with a harness error.
var errCheck = errors.New("correctness check failed")

func checkFailed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// getter is the read path a check uses; a cluster session's Get in
// production, a map in the unit tests.
type getter func(table string, key uint64) ([]byte, bool, error)

// field reads the i-th little-endian uint64 field of a workload row. The
// TPC-C and TPC-H rows in internal/workload lead with fixed 8-byte numeric
// fields; the check depends on that layout and on the field order below.
func field(row []byte, i int) (uint64, error) {
	if len(row) < (i+1)*8 {
		return 0, checkFailed("row of %d bytes has no field %d", len(row), i)
	}
	return binary.LittleEndian.Uint64(row[i*8:]), nil
}

// TPC-C row fields the consistency check reads (internal/workload/tpcc.go).
const (
	tpccWarehouseYTD = 0 // warehouse: [ytd]
	tpccDistrictNext = 0 // district: [next_oid, ytd, delivered]
	tpccDistrictYTD  = 1
)

// checkTPCC verifies the two TPC-C consistency conditions the benchmark
// can state exactly: every committed New-Order consumed one district
// order id (Σ(next_oid−1) = committed New-Orders, next_oid starting at
// 1), and each warehouse's YTD equals the sum of its districts' YTD
// (Payment adds the same amount to both in one transaction).
func checkTPCC(get getter, warehouses, districts int, committedNewOrders uint64) error {
	var orders uint64
	for w := 1; w <= warehouses; w++ {
		wv, ok, err := get(workload.TWarehouse, uint64(w))
		if err != nil {
			return err
		}
		if !ok {
			return checkFailed("warehouse %d missing", w)
		}
		wYTD, err := field(wv, tpccWarehouseYTD)
		if err != nil {
			return err
		}
		var dYTD uint64
		for d := 1; d <= districts; d++ {
			key := uint64(w)*100 + uint64(d)
			dv, ok, err := get(workload.TDistrict, key)
			if err != nil {
				return err
			}
			if !ok {
				return checkFailed("district %d/%d missing", w, d)
			}
			next, err := field(dv, tpccDistrictNext)
			if err != nil {
				return err
			}
			ytd, err := field(dv, tpccDistrictYTD)
			if err != nil {
				return err
			}
			if next < 1 {
				return checkFailed("district %d/%d next_oid %d < 1", w, d, next)
			}
			orders += next - 1
			dYTD += ytd
		}
		if wYTD != dYTD {
			return checkFailed("warehouse %d W_YTD %d != Σ D_YTD %d", w, wYTD, dYTD)
		}
	}
	if orders != committedNewOrders {
		return checkFailed("Σ(next_oid−1) = %d, committed New-Orders = %d", orders, committedNewOrders)
	}
	return nil
}

// Rows written by the replica-rw updates: a magic tag, the row's own
// key, the writer's sequence number, filler, and an FNV-64a checksum of
// everything before it. A read can then prove it got the row it asked
// for, intact.
const (
	rowSize  = 120 // workload.Sysbench's default PayloadSize
	rowMagic = "PBv1"
)

// updateRow builds the value the benchmark writes for key at seq.
func updateRow(key, seq uint64) []byte {
	b := make([]byte, rowSize)
	copy(b, rowMagic)
	binary.LittleEndian.PutUint64(b[4:], key)
	binary.LittleEndian.PutUint64(b[12:], seq)
	for i := 20; i < rowSize-8; i++ {
		b[i] = byte(key ^ seq ^ uint64(i))
	}
	binary.LittleEndian.PutUint64(b[rowSize-8:], rowSum(b[:rowSize-8]))
	return b
}

func rowSum(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash never returns an error
	return h.Sum64()
}

// loadedRow is the value workload.Sysbench.Load writes for key with the
// default payload size (workload.payload(120, byte(key))).
func loadedRow(key uint64) []byte {
	b := make([]byte, rowSize)
	for i := range b {
		b[i] = 'a' + (byte(key)+byte(i))%26
	}
	return b
}

// checkRow verifies a replica-rw read of key: the row must exist and be
// either the loaded value or an intact benchmark update of this key.
func checkRow(key uint64, val []byte, found bool) error {
	if !found {
		return checkFailed("sbtest key %d not found", key)
	}
	if len(val) != rowSize {
		return checkFailed("sbtest key %d: %d bytes, want %d", key, len(val), rowSize)
	}
	if !bytes.HasPrefix(val, []byte(rowMagic)) {
		if !bytes.Equal(val, loadedRow(key)) {
			return checkFailed("sbtest key %d: neither the loaded row nor a benchmark update", key)
		}
		return nil
	}
	if k := binary.LittleEndian.Uint64(val[4:]); k != key {
		return checkFailed("sbtest key %d holds the row of key %d", key, k)
	}
	if sum := binary.LittleEndian.Uint64(val[rowSize-8:]); sum != rowSum(val[:rowSize-8]) {
		return checkFailed("sbtest key %d: checksum mismatch", key)
	}
	return nil
}

// checkLastWrites verifies that each updated key reads back its last
// committed value. A read replica applies redo asynchronously, so a key
// that still reads an older intact value is re-read until the shared
// catch-up deadline passes.
func checkLastWrites(get getter, last map[uint64]uint64, catchUp time.Duration) error {
	b := retry.NewBackoff(time.Millisecond, catchUp)
	for key, seq := range last {
		want := updateRow(key, seq)
		for {
			val, ok, err := get(workload.TableName, key)
			if err != nil {
				return err
			}
			if err := checkRow(key, val, ok); err != nil {
				return err
			}
			if bytes.Equal(val, want) {
				break
			}
			if !b.Sleep() {
				return checkFailed("sbtest key %d does not read back its last committed update (seq %d)", key, seq)
			}
		}
	}
	return nil
}

// tpchRows are the rows each query of the tpch-spill cycle touches on
// TPC-H SF 3, captured from a BKP-off run. TPCH.Load is deterministic,
// so a query returning any other count read wrong data.
var tpchRows = map[string]int{
	"Q3":  13354,
	"Q4":  5608,
	"Q10": 13354,
	"Q12": 8962,
	"Q17": 10808,
	"Q18": 4500,
}

func checkQueryRows(query string, rows int) error {
	want, ok := tpchRows[query]
	if !ok {
		return checkFailed("no expected row count for %s", query)
	}
	if rows != want {
		return checkFailed("%s touched %d rows, want %d", query, rows, want)
	}
	return nil
}
