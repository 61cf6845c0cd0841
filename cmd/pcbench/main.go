// Command pcbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	pcbench -exp table1|table2|table3|table4|ocean|combine|postmortem|ablation|scale|fig1|fig2|fig3|all
//	        [-trials N] [-parallel N] [-store DIR] [-wal] [-shards N]
//
// -parallel bounds the number of diagnosis sessions run concurrently
// (default: the number of CPUs). Because every session's state is
// confined to its own goroutine and the simulator is deterministic per
// seed, the rendered output is byte-identical for every -parallel value;
// -parallel 1 reproduces the fully sequential behaviour.
//
// -store persists every experiment's run records to an on-disk
// experiment store, browsable afterwards with pcquery; without it the
// experiments run against an in-memory store. The rendered output is
// identical either way: records round-trip through the same encoding.
// -wal additionally journals every store write ahead of the record
// files (the pcd durability layer); it changes nothing about the
// rendered output, only the store's crash safety. -shards N lays the
// store out as N consistent-hash shards; scatter-gather reads merge in
// canonical order, so the rendered output is byte-identical to the
// single-store (and in-memory) layouts at any shard count.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"

	"repro/internal/harness"
	"repro/internal/history"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcbench: ")
	exp := flag.String("exp", "all", "experiment to regenerate")
	trials := flag.Int("trials", 3, "repeated runs per configuration (medians reported)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "max concurrent diagnosis sessions (1 = sequential)")
	storeDir := flag.String("store", "", "directory to persist experiment run records (default: in-memory)")
	wal := flag.Bool("wal", false, "journal -store writes ahead of record files (crash safety)")
	shards := flag.Int("shards", 0, "open -store as a consistent-hash sharded layout with N shards (0 = single store, or whatever layout exists)")
	flag.Parse()

	var st history.Storage
	if *storeDir != "" {
		var err error
		st, err = history.OpenStoreAuto(*storeDir, *shards, history.DurableOptions{Create: true, WAL: *wal})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
	} else if *shards > 0 {
		log.Fatal("-shards needs -store (an in-memory store has no shard layout)")
	}
	env := harness.NewEnv(st)

	var names []string
	ran := false
	run := func(name string, f func() (string, error)) {
		names = append(names, name)
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		out, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
	}

	run("fig1", func() (string, error) { return harness.Figure1() })
	run("fig2", func() (string, error) { return harness.Figure2() })
	run("fig3", func() (string, error) { return harness.Figure3() })
	run("table1", func() (string, error) {
		r, err := env.Table1(*trials, *parallel)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("table2", func() (string, error) {
		r, err := harness.Table2(*trials, *parallel)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("ocean", func() (string, error) {
		r, err := harness.OceanThresholds(*trials, *parallel)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("table3", func() (string, error) {
		r, err := env.Table3(*trials, *parallel)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("table4", func() (string, error) {
		r, err := env.Table4(*parallel)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("combine", func() (string, error) {
		r, err := env.CombineStudy(*parallel)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("postmortem", func() (string, error) {
		r, err := env.PostmortemStudy(*parallel)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("ablation", func() (string, error) {
		r, err := env.Ablation(*parallel)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("scale", func() (string, error) {
		r, err := env.ScaleStudy(nil, *parallel)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	if !ran {
		log.Fatalf("unknown -exp %q (want all, %s)", *exp, strings.Join(names, ", "))
	}
}
