// Command ptguard-profile regenerates Fig. 8: the distribution of PTE PFN
// values (zero / contiguous / non-contiguous) across a synthetic process
// population calibrated to the paper's 623-process Ubuntu measurement
// (64.13% zero, 23.73% contiguous, >99% flag uniformity).
package main

import (
	"flag"
	"fmt"
	"os"

	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ptguard-profile:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		processes = flag.Int("processes", 623, "number of processes to synthesise")
		memGB     = flag.Int("mem-gb", 16, "physical memory size in GiB")
		seed      = flag.Uint64("seed", 42, "random seed")
		csv       = flag.Bool("csv", false, "emit per-process CSV instead of the summary")
		jsonOut   = flag.Bool("json", false, "emit the summary as JSON instead of a table")
	)
	flag.Parse()
	if *memGB < 1 {
		return fmt.Errorf("-mem-gb %d: physical memory must be at least 1 GiB", *memGB)
	}

	frames := uint64(*memGB) << 30 / pte.PageSize
	alloc, err := ostable.NewFrameAllocator(4096, frames-4096)
	if err != nil {
		return err
	}
	cfg := ostable.DefaultSynthConfig()
	cfg.Seed = *seed
	pop, err := ostable.NewPopulation(cfg, alloc)
	if err != nil {
		return err
	}
	perProc, err := ostable.RunPopulation(pop, *processes)
	if err != nil {
		return err
	}
	sum, err := ostable.Summarize(perProc)
	if err != nil {
		return err
	}

	if *csv {
		tbl := report.New("", "rank", "zero", "contiguous", "non-contiguous")
		for i, p := range sum.PerProcess {
			tbl.AddRow(report.I(i+1), report.Pct(p.ZeroPct()),
				report.Pct(p.ContiguousPct()), report.Pct(p.NonContiguousPct()))
		}
		return report.Emit(os.Stdout, tbl, report.FormatCSV)
	}

	tbl := report.New(
		fmt.Sprintf("Fig. 8 — PTE PFN categories over %d processes (%d PTEs)",
			sum.Processes, sum.TotalPTEs),
		"category", "mean", "std err", "paper")
	tbl.AddRow("zero PFNs", report.Pct(sum.ZeroMean), report.F(sum.ZeroStdErr, 3), "64.13%")
	tbl.AddRow("contiguous PFNs", report.Pct(sum.ContigMean), report.F(sum.ContigSE, 3), "23.73%")
	tbl.AddRow("non-contiguous PFNs", report.Pct(sum.NonContMean), "", "12.14%")
	tbl.AddRow("flag-uniform lines", report.Pct(sum.FlagUniform), "", ">99%")
	return report.Emit(os.Stdout, tbl, report.Format(false, *jsonOut))
}
