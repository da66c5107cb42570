// Command groupcast-bench is the repository's one benchmark: it builds a
// pinned depth-3 tree of 15 in-process nodes, drives it closed-loop, checks
// every delivery, and prints each metric by name with its unit followed by
// one JSON result line. See internal/bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"groupcast/internal/bench"
)

// hardCap is the wall-clock limit after which the watchdog kills the
// process: nothing the benchmark starts may outlive a hung run.
const hardCap = 170 * time.Second

func main() {
	var o bench.Options
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced rounds; 1: per-layer metrics (traced cluster + layer pass)")
	quick := flag.Bool("quick", false, "smoke run: 2 measured seconds (0.2 s phases), one set-up")
	flag.StringVar(&o.Workload, "workload", "", "mem_tree_be | tcp_tree_be | mem_chat_ro | tcp_chat_ro_4k")
	flag.Int64Var(&o.Seed, "seed", 1, "seed for coordinates, node seeds and payload filler")
	flag.Float64Var(&o.Seconds, "seconds", 25, "measured seconds")
	flag.StringVar(&o.TraceOut, "trace-out", "", "with -trace 1: write the traced pass's spans to this file as NDJSON")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "groupcast-bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *quick {
		o.Seconds, o.Setups = 2, 1
	}
	o.Trace = *trace != 0
	o.Log = os.Stdout

	time.AfterFunc(hardCap, func() {
		fmt.Fprintf(os.Stderr, "groupcast-bench: watchdog: still running after %v\n", hardCap)
		os.Exit(3)
	})

	res, err := bench.Run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "groupcast-bench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "groupcast-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
