package exp

import (
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/resultcache"
)

// BenchmarkMatrix measures the experiment matrix at increasing worker
// counts so the parallel runner's wall-clock win is a reported number,
// not an assertion. Compare the j=1 (serial baseline) timing against
// j=4/j=8; on a ≥4-core machine the grid of independent simulations
// scales near-linearly until workers exceed cores:
//
//	go test ./internal/exp -bench BenchmarkMatrix -run '^$'
func BenchmarkMatrix(b *testing.B) {
	c := tinyConfig()
	c.Requests = 30_000
	// TLM, MemPod, HMA, THM over three workloads: a 12-cell grid, the
	// same shape as the Fig8 sweep subset.
	builders := c.baselineBuilders(dram.HBM(), dram.DDR4_1600())[:4]
	cells := len(builders) * len(c.Workloads)
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			cfg := c
			cfg.Parallelism = j
			for i := 0; i < b.N; i++ {
				if _, err := cfg.matrix(builders); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkMatrixWarm measures the same 12-cell matrix served entirely
// from a populated result cache — the steady state of a re-run with
// -result-cache. Compare against BenchmarkMatrix/j=1: the gap is the
// whole point of the cache (the warm path only probes keys, decodes a few
// hundred payload bytes per cell, and assembles the table). Each
// iteration uses a fresh in-memory Cache over the same store directory,
// so it times the cross-process path (read + checksum + decode), not
// resident-map lookups. j=1 serves the cells on the calling goroutine,
// j=2 on two runner workers.
func BenchmarkMatrixWarm(b *testing.B) {
	c := tinyConfig()
	c.Requests = 30_000
	store := b.TempDir()
	builders := c.baselineBuilders(dram.HBM(), dram.DDR4_1600())[:4]
	cells := len(builders) * len(c.Workloads)
	{
		warm := c
		warm.Parallelism = 1
		warm.Results = resultcache.New()
		warm.Results.SetDir(store)
		if _, err := warm.matrix(builders); err != nil {
			b.Fatal(err)
		}
	}
	for _, j := range []int{1, 2} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := c
				cfg.Parallelism = j
				cfg.Results = resultcache.New()
				cfg.Results.SetDir(store)
				if _, err := cfg.matrix(builders); err != nil {
					b.Fatal(err)
				}
				if s := cfg.Results.Stats(); s.Misses != 0 {
					b.Fatalf("warm pass simulated %d cells", s.Misses)
				}
			}
			b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
