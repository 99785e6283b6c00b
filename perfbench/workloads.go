package main

import (
	"fmt"

	"addrxlat/internal/experiments"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/workload"
)

// floorAccessDiv drives every access count of an entry point to its
// floor (10⁴ accesses for the Figure 1 machines, 300 + 1200 requests for
// the serving sweep): the setup pass builds the same machine as a timed
// pass but simulates almost nothing.
const floorAccessDiv = 1 << 62

// spec is one benchmark workload: a public entry point of
// internal/experiments at a fixed machine size.
type spec struct {
	name string
	// spaceDiv fixes the memory footprint; accessDiv the length of one
	// timed pass.
	spaceDiv, accessDiv uint64
	// workers is Scale.Workers before the nproc cap.
	workers int
	// rows is the table's row count, one row per cell.
	rows int
	run  func(s experiments.Scale, seed uint64) (*experiments.Table, error)
	// stream rebuilds the request stream the entry point generates, for
	// timing generation alone.
	stream func(s experiments.Scale, seed uint64) (stream, error)
}

// stream is a workload's request stream, rebuilt from the geometry
// mirrored below.
type stream struct {
	gens []workload.Generator
	// draws is the number of accesses drawn from each generator.
	draws int
	// reported is the total access count the entry point reports to
	// Probe.RowPhase in one pass. The traced run checks its probe's sum
	// against it, so a mirror that drifts from internal/experiments shows.
	reported int
}

// Machine geometry mirrored from internal/experiments (config.go,
// fig1.go, serve.go), used only to rebuild the request streams for
// workload.gen_s. Tables never depend on these copies; the traced run
// checks them through stream.reported.
const (
	gib          = uint64(1) << 30
	pageBytes    = 4096
	fig1Accesses = 100_000_000 // per window, before AccessDiv
)

func scaledPages(bytes, spaceDiv uint64) uint64 { return max(bytes/pageBytes/spaceDiv, 1) }

func scaledAccesses(n, accessDiv uint64) int { return int(max(n/accessDiv, 10_000)) }

// bimodalStream is the F1aBimodal row stream (also the Adaptive row).
// Its warmup and measured windows are reported as one row.
func bimodalStream(s experiments.Scale, seed uint64) (stream, error) {
	g, err := workload.NewBimodal(scaledPages(gib, s.SpaceDiv), scaledPages(64*gib, s.SpaceDiv), 0.9999, seed)
	n := 2 * scaledAccesses(fig1Accesses, s.AccessDiv)
	return stream{gens: []workload.Generator{g}, draws: n, reported: n}, err
}

// graphWalkStream is the F1bGraphWalk row stream.
func graphWalkStream(s experiments.Scale, seed uint64) (stream, error) {
	g, err := workload.NewGraphWalk(scaledPages(64*gib, s.SpaceDiv), 0.01, seed)
	n := 2 * scaledAccesses(fig1Accesses, s.AccessDiv)
	return stream{gens: []workload.Generator{g}, draws: n, reported: n}, err
}

// serveStream is every serve cell's bimodal tenant, drawn for all of its
// calibration and offered requests at the full block size: an upper
// bound on what the event loop generates, since shed requests and
// degraded blocks draw less. Each cell reports its offered requests.
func serveStream(s experiments.Scale, seed uint64) (stream, error) {
	const (
		algs, loads = 4, 5
		blockPages  = 256
	)
	warm := max(scaledAccesses(20_000_000, s.AccessDiv)/blockPages, 300)
	req := max(scaledAccesses(80_000_000, s.AccessDiv)/blockPages, 1200)
	var gens []workload.Generator
	for ai := 0; ai < algs; ai++ {
		for li := 0; li < loads; li++ {
			base := hashutil.Hash64(seed, uint64(ai)<<32|uint64(li))
			g, err := workload.NewBimodal(scaledPages(64<<20, s.SpaceDiv), scaledPages(4*gib, s.SpaceDiv), 0.9, hashutil.Mix64(base+1))
			if err != nil {
				return stream{}, err
			}
			gens = append(gens, g)
		}
	}
	return stream{gens: gens, draws: (warm + req) * blockPages, reported: algs * loads * req}, nil
}

// specs lists the workloads; README.md gives the reason for each.
var specs = []spec{
	{
		name: "f1a-hot", spaceDiv: 64, accessDiv: 20, workers: 2, rows: 11,
		run: func(s experiments.Scale, seed uint64) (*experiments.Table, error) {
			return experiments.Fig1(experiments.F1aBimodal, s, seed)
		},
		stream: bimodalStream,
	},
	{
		name: "f1b-walk", spaceDiv: 8, accessDiv: 80, workers: 1, rows: 11,
		run: func(s experiments.Scale, seed uint64) (*experiments.Table, error) {
			return experiments.Fig1(experiments.F1bGraphWalk, s, seed)
		},
		stream: graphWalkStream,
	},
	{
		name: "e4-translate", spaceDiv: 64, accessDiv: 40, workers: 2, rows: 7,
		run:    experiments.Adaptive,
		stream: bimodalStream,
	},
	{
		name: "sv-overload", spaceDiv: 64, accessDiv: 80, workers: 2, rows: 20,
		run:    experiments.ServeGoodput,
		stream: serveStream,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scale returns the Scale of one pass: caches, probe and explain off,
// workers capped at the host's CPUs.
func (sp spec) scale(accessDiv uint64, cpus int) experiments.Scale {
	return experiments.Scale{
		SpaceDiv:  sp.spaceDiv,
		AccessDiv: accessDiv,
		Workers:   min(sp.workers, cpus),
	}
}
