package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadResults reads one result file, or every *.json result directly
// under a directory, and groups the results by workload.
func loadResults(path string) (map[string][]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string][]*result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a perfbench result", f)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// medians takes, for each metric, the median over the runs, keyed
// "e2e/<name>" or "layer/<name>".
func medians(runs []*result) map[string]metric {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for kind, m := range map[string]map[string]metric{"e2e": r.EndToEnd, "layer": r.PerLayer} {
			for n, v := range m {
				vals[kind+"/"+n] = append(vals[kind+"/"+n], v.Value)
				units[kind+"/"+n] = v.Unit
			}
		}
	}
	out := map[string]metric{}
	for k, vs := range vals {
		sort.Float64s(vs)
		out[k] = metric{Value: vs[len(vs)/2], Unit: units[k], Samples: len(vs)}
	}
	return out
}

// compareResults prints, per workload, each metric's median over the
// BASE runs and the NEW runs and the relative change, so a later claim
// can be attributed to the layers that moved.
func compareResults(w io.Writer, basePath, newPath string) error {
	base, err := loadResults(basePath)
	if err != nil {
		return err
	}
	next, err := loadResults(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base))
	for wl := range base {
		if _, ok := next[wl]; ok {
			names = append(names, wl)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload appears on both sides")
	}
	sort.Strings(names)
	for _, wl := range names {
		a, b := medians(base[wl]), medians(next[wl])
		fmt.Fprintf(w, "== %s (runs: base %d, new %d; medians)\n", wl, len(base[wl]), len(next[wl]))
		fmt.Fprintf(w, "  %-40s %14s %14s %9s\n", "metric", "base", "new", "delta")
		keys := make([]string, 0, len(a))
		for k := range a {
			if _, ok := b[k]; ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			delta := "-"
			if a[k].Value != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(b[k].Value-a[k].Value)/a[k].Value)
			}
			fmt.Fprintf(w, "  %-40s %14.6g %14.6g %9s %s\n", k, a[k].Value, b[k].Value, delta, a[k].Unit)
		}
	}
	return nil
}
