// Command perfbench is the repository's end-to-end benchmark. It
// deploys PVFS or CEFT-PVFS data servers (and, for service_mix, blastd)
// in this process over local TCP, drives one workload through the
// public APIs, checks every answer against the serial BLAST oracle,
// and prints the metrics by name with their units; the last line of
// standard output is one JSON object with the result.
//
//	perfbench --workload scan_pvfs --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead runs the workload traced, with a timing
// shim around every layer call, and prints the per-layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"pario/internal/blast"
)

// The workloads. Sizes are set for a 2-vCPU host: the system under
// test runs at most two search goroutines (workers x threads), and the
// load generator keeps at most two operations in flight.
var (
	// scan_pvfs: mpiblast over PVFS at its defaults — 4 data servers,
	// no readahead, no collective I/O, blastn. Kernel-bound on the
	// letters decode path.
	scanPVFS = scanSpec{
		cluster:  cluster{servers: 4, fragments: 8, clients: 2},
		letters:  32_000_000,
		params:   blast.Params{Program: blast.BlastN},
		setups:   3,
		queries:  6,
		queryLen: 568,
	}
	// scan_ceft_hotspot: CEFT-PVFS with 2 primary and 2 mirror servers,
	// one primary's disk stressed, readahead and collective I/O on,
	// megablast: placement and caching decide the time.
	scanHotspot = scanSpec{
		cluster:  cluster{ceft: true, servers: 2, fragments: 8, clients: 2, throttle: 500 * time.Microsecond},
		letters:  32_000_000,
		params:   blast.Params{Program: blast.BlastN, Greedy: true},
		cached:   true,
		setups:   3,
		queries:  6,
		queryLen: 568,
	}
	// service_mix: blastd over PVFS (4 servers, no readahead), one
	// worker with two search threads.
	serviceMix = serviceSpec{
		cluster:     cluster{servers: 4, fragments: 8, clients: 1},
		letters:     2_000_000,
		threads:     2,
		rate:        14,
		setups:      9,
		poolSize:    8,
		repeatShare: 0.5,
		checkShare:  0.1,
		openShare:   0.8,
		conns:       2,
		queryLen:    568,
	}
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: scan_pvfs, scan_ceft_hotspot or service_mix")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	secs := flag.Int("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	flag.Parse()
	if *secs < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	env := newEnvironment(*workload, *seed, *trace == 1, *secs)
	var rep *report
	var err error
	switch *workload {
	case "scan_pvfs":
		rep, err = runScan(scanPVFS, &env, *secs, *trace == 1)
	case "scan_ceft_hotspot":
		rep, err = runScan(scanHotspot, &env, *secs, *trace == 1)
	case "service_mix":
		rep, err = runService(serviceMix, &env, *secs, *trace == 1)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stamp, _ := json.Marshal(env)
	fmt.Println("env", string(stamp))
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := rep.emit(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}
