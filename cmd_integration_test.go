// End-to-end CLI test: builds every cmd/ binary once and runs it with
// minimal parameters, verifying exit status and that the headline table
// appears. Skipped under -short (it compiles every cmd/ binary).
package ptguard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every cmd/ binary; run without -short")
	}
	binDir := t.TempDir()
	build := exec.Command("go", "build", "-o", binDir, "./cmd/...")
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}

	tests := []struct {
		bin  string
		args []string
		want []string
	}{
		{
			bin:  "ptguard-report",
			args: []string{"-table=storage"},
			want: []string{"52", "71", "12.5%"},
		},
		{
			bin:  "ptguard-security",
			args: nil,
			want: []string{"Eq. 1", "Eq. 2", "65.7"},
		},
		{
			bin:  "ptguard-profile",
			args: []string{"-processes", "8"},
			want: []string{"zero PFNs", "contiguous PFNs", "flag-uniform"},
		},
		{
			bin:  "ptguard-correct",
			args: []string{"-lines", "40", "-probs", "1/512"},
			want: []string{"corrected %", "100.00%"},
		},
		{
			bin:  "ptguard-attack",
			args: nil,
			want: []string{"privilege escalation", "PTECheckFailed", "re-key"},
		},
		{
			bin:  "ptguard-attack",
			args: []string{"-compare", "-trials", "40"},
			want: []string{"pt-guard", "100.00%"},
		},
		{
			bin:  "ptguard-slowdown",
			args: []string{"-warmup", "2000", "-instructions", "4000", "-optimized=false"},
			want: []string{"xalancbmk", "AMEAN", "WORST"},
		},
		{
			bin:  "ptguard-latency",
			args: []string{"-warmup", "2000", "-instructions", "4000", "-latencies", "10"},
			want: []string{"10 cycles"},
		},
		{
			bin:  "ptguard-multicore",
			args: []string{"-warmup", "1000", "-instructions", "2000", "-same", "1", "-mix", "1"},
			want: []string{"AVERAGE", "WORST"},
		},
		{
			bin:  "ptguard-trace",
			args: []string{"-instructions", "30000", "-trials", "30"},
			want: []string{"trace lines", "coverage %"},
		},
		{
			bin:  "ptguard-ablation",
			args: []string{"-lines", "30"},
			want: []string{"zero-PTE reset", "Soft-match budget", "MAC width"},
		},
		{
			bin: "ptguard-sweep",
			args: []string{"-sections", "slowdown", "-workloads", "leela,povray",
				"-warmup", "1000", "-instructions", "2000", "-workers", "2", "-quiet"},
			want: []string{"Fig. 6", "leela", "povray", "AMEAN", "WORST"},
		},
		{
			bin: "ptguard-sweep",
			args: []string{"-sections", "correction", "-correction-lines", "30",
				"-format", "json", "-quiet"},
			want: []string{`"headers"`, "Fig. 9", "corrected %"},
		},
		{
			bin: "ptguard-mitigate",
			args: []string{"-mitigations", "none,trr", "-patterns", "classic,many-sided",
				"-trials", "1", "-acts", "4096", "-workers", "2", "-quiet"},
			want: []string{"Mitigation head-to-head", "DEFEATED", "defended", "coverage %"},
		},
		{
			bin:  "ptguard-mitigate",
			args: []string{"-list"},
			want: []string{"graphene", "oracle", "para", "half-double", "many-sided"},
		},
		{
			bin:  "ptguard-security",
			args: []string{"-mitigation", "oracle"},
			want: []string{"Residual exposure", "oracle", "no flips"},
		},
		{
			bin: "ptguard-sweep",
			args: []string{"-sections", "mitigate", "-mitigation", "oracle",
				"-mitigate-trials", "1", "-mitigate-acts", "4096", "-quiet"},
			want: []string{"Mitigation head-to-head", "oracle", "no flips"},
		},
		{
			bin: "ptguard-soak",
			args: []string{"-faults", "worker.panic", "-lines", "20", "-jobs", "6",
				"-timeout", "30s", "-quiet"},
			want: []string{"Crash-safe soak", "worker.panic", "byte-identical"},
		},
		{
			bin: "ptguard-vm",
			args: []string{"-tenants", "4", "-placements", "none,both",
				"-targets", "guest,stage2", "-trials", "1", "-pages", "8",
				"-acts", "4096", "-workers", "2", "-quiet"},
			want: []string{"Inter-VM", "guest", "stage2", "coverage %", "defended"},
		},
		{
			bin:  "ptguard-vm",
			args: []string{"-list"},
			want: []string{"none", "guest", "stage2", "both"},
		},
		{
			bin:  "ptguard-worker",
			args: []string{"-list-kinds"},
			want: []string{"ablation", "correction", "faults", "mitigate",
				"multicore", "slowdown", "synthetic", "virt"},
		},
		{
			// A whole campaign sharded over worker subprocesses; the
			// coordinator discovers ptguard-worker next to its own binary.
			bin: "ptguard-mitigate",
			args: []string{"-mitigations", "none", "-patterns", "classic",
				"-trials", "1", "-acts", "4096", "-quiet",
				"-backend", "proc", "-dist-workers", "2"},
			want: []string{"Mitigation head-to-head", "DEFEATED"},
		},
	}
	for _, tt := range tests {
		name := tt.bin + strings.Join(tt.args, "_")
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(binDir, tt.bin), tt.args...)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s %v: %v", tt.bin, tt.args, err)
			}
			for _, want := range tt.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s output missing %q:\n%s", tt.bin, want, out)
				}
			}
		})
	}

	// Flag validation: a bad flag must exit non-zero.
	cmd := exec.Command(filepath.Join(binDir, "ptguard-report"), "-table=nonsense")
	if err := cmd.Run(); err == nil {
		t.Error("ptguard-report accepted an unknown table")
	}
	if err := exec.Command(filepath.Join(binDir, "ptguard-soak"),
		"-faults", "nonsense.point").Run(); err == nil {
		t.Error("ptguard-soak accepted an unknown fault point")
	}
	for _, gb := range []string{"0", "-1"} {
		out, err := exec.Command(filepath.Join(binDir, "ptguard-profile"), "-mem-gb", gb).CombinedOutput()
		if err == nil {
			t.Errorf("ptguard-profile accepted -mem-gb %s", gb)
		} else if !strings.Contains(string(out), "at least 1 GiB") {
			t.Errorf("ptguard-profile -mem-gb %s: unclear error %q", gb, out)
		}
	}
	// A bad slowdown grid fails up front with one error: latency 0 used to
	// run at the 10-cycle default, -3 reported a negative slowdown, a
	// negative warm-up was accepted, and negative instructions failed
	// every job.
	for _, bad := range [][]string{
		{"-mac-latencies", "0"}, {"-mac-latencies", "5,-3"},
		{"-warmup", "-1"}, {"-instructions", "-5"},
	} {
		args := append([]string{"-sections", "slowdown", "-workloads", "leela", "-quiet"}, bad...)
		out, err := exec.Command(filepath.Join(binDir, "ptguard-sweep"), args...).CombinedOutput()
		if err == nil {
			t.Errorf("ptguard-sweep accepted %v", bad)
		} else if !strings.Contains(string(out), "harness: slowdown") {
			t.Errorf("ptguard-sweep %v: unclear error %q", bad, out)
		}
	}

	// A bad Fig. 9 or ablation grid fails up front with one error instead
	// of expanding jobs that each fail on the same parameter.
	for _, bad := range []struct {
		args []string
		want string
	}{
		{[]string{"-sections", "correction", "-correction-lines", "-5"}, "harness: correction"},
		{[]string{"-sections", "ablation", "-flip-prob", "1.5"}, "harness: ablation"},
		{[]string{"-sections", "ablation", "-flip-prob", "-0.5"}, "harness: ablation"},
		{[]string{"-sections", "ablation", "-ablation-lines", "-1"}, "harness: ablation"},
	} {
		args := append([]string{"-quiet"}, bad.args...)
		out, err := exec.Command(filepath.Join(binDir, "ptguard-sweep"), args...).CombinedOutput()
		if err == nil {
			t.Errorf("ptguard-sweep accepted %v", bad.args)
		} else if !strings.Contains(string(out), bad.want) {
			t.Errorf("ptguard-sweep %v: unclear error %q", bad.args, out)
		}
	}

	// Kill-resume determinism: a soak cycle that really SIGKILLs the
	// campaign mid-journal-write (short write included) and corrupts the
	// journal between legs must still converge to a report byte-identical
	// to the uninterrupted run, with at least one real process kill and
	// one corruption exercised per fault point.
	t.Run("ptguard-soak_kill_resume_determinism", func(t *testing.T) {
		cmd := exec.Command(filepath.Join(binDir, "ptguard-soak"),
			"-faults", "proc.kill,journal.short-write",
			"-lines", "20", "-jobs", "6", "-timeout", "30s",
			"-format", "csv", "-quiet")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("ptguard-soak: %v\n%s", err, out)
		}
		rows := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(rows) != 3 { // header + one row per fault point
			t.Fatalf("want 3 CSV rows, got %d:\n%s", len(rows), out)
		}
		for _, row := range rows[1:] {
			cells := strings.Split(row, ",")
			if len(cells) != 7 {
				t.Fatalf("malformed CSV row %q", row)
			}
			point, kills, corrupted, verdict := cells[1], cells[4], cells[5], cells[6]
			if !strings.Contains(verdict, "byte-identical") {
				t.Errorf("%s: resumed report diverged: %q", point, verdict)
			}
			if kills == "0" {
				t.Errorf("%s: cycle finished without a real process kill", point)
			}
			if corrupted == "0" {
				t.Errorf("%s: cycle finished without exercising journal corruption", point)
			}
		}
	})

	// Inter-VM kill-resume determinism: SIGKILL a journaled ptguard-vm
	// campaign mid-run, resume it against the same journal, and require
	// output byte-identical to an uninterrupted run with the same seed.
	// (If the first leg finishes before the kill lands, the resume leg is a
	// pure journal replay and the check still holds.)
	t.Run("ptguard-vm_kill_resume_determinism", func(t *testing.T) {
		dir := t.TempDir()
		vmArgs := func(journal string) []string {
			return []string{"-seed", "7", "-tenants", "4,6",
				"-targets", "guest,stage2", "-trials", "2", "-pages", "8",
				"-workers", "2", "-quiet", "-format", "csv",
				"-journal", journal}
		}
		ref, err := exec.Command(filepath.Join(binDir, "ptguard-vm"),
			vmArgs(filepath.Join(dir, "ref.jsonl"))...).Output()
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}

		journal := filepath.Join(dir, "resume.jsonl")
		first := exec.Command(filepath.Join(binDir, "ptguard-vm"), vmArgs(journal)...)
		if err := first.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(400 * time.Millisecond)
		_ = first.Process.Kill()
		_ = first.Wait()

		out, err := exec.Command(filepath.Join(binDir, "ptguard-vm"), vmArgs(journal)...).Output()
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if !bytes.Equal(out, ref) {
			t.Errorf("resumed report diverged from uninterrupted run:\n--- resumed\n%s\n--- reference\n%s", out, ref)
		}
	})

	// Distributed-backend determinism: the same sweep section run in-process
	// and sharded over worker subprocesses must emit byte-identical reports.
	t.Run("ptguard-sweep_proc_backend_determinism", func(t *testing.T) {
		args := []string{"-sections", "correction", "-correction-lines", "20",
			"-format", "csv", "-quiet"}
		local, err := exec.Command(filepath.Join(binDir, "ptguard-sweep"), args...).Output()
		if err != nil {
			t.Fatalf("local run: %v", err)
		}
		proc, err := exec.Command(filepath.Join(binDir, "ptguard-sweep"),
			append(args, "-backend", "proc", "-dist-workers", "3")...).Output()
		if err != nil {
			t.Fatalf("proc run: %v", err)
		}
		if !bytes.Equal(proc, local) {
			t.Errorf("proc report diverged from local:\n--- proc\n%s\n--- local\n%s", proc, local)
		}
	})

	// Distributed kill-resume determinism: SIGKILL a journaled -backend=proc
	// campaign mid-run (taking its worker subprocesses down with it), resume
	// against the same journal at a different worker count, and require
	// output byte-identical to the in-process run — the journal, not the
	// backend, is the source of truth. (If the first leg finishes before the
	// kill lands, the resume is a pure journal replay and the check holds.)
	t.Run("ptguard-faults_proc_kill_resume_determinism", func(t *testing.T) {
		dir := t.TempDir()
		faultsArgs := func(journal string, extra ...string) []string {
			return append([]string{"-seed", "7", "-models", "1bit,2bit,burst",
				"-modes", "detect,correct", "-lines", "60",
				"-quiet", "-format", "csv", "-journal", journal}, extra...)
		}
		ref, err := exec.Command(filepath.Join(binDir, "ptguard-faults"),
			faultsArgs(filepath.Join(dir, "ref.jsonl"))...).Output()
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}

		journal := filepath.Join(dir, "resume.jsonl")
		first := exec.Command(filepath.Join(binDir, "ptguard-faults"),
			faultsArgs(journal, "-backend", "proc", "-dist-workers", "2")...)
		if err := first.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(600 * time.Millisecond)
		_ = first.Process.Kill()
		_ = first.Wait()

		out, err := exec.Command(filepath.Join(binDir, "ptguard-faults"),
			faultsArgs(journal, "-backend", "proc", "-dist-workers", "4")...).Output()
		if err != nil {
			t.Fatalf("resumed proc run: %v", err)
		}
		if !bytes.Equal(out, ref) {
			t.Errorf("resumed proc report diverged from local reference:\n--- resumed\n%s\n--- reference\n%s", out, ref)
		}
	})

	// Soak under the proc backend: the kill/corrupt/resume cycle runs its
	// disrupted legs on worker subprocesses while the reference stays
	// in-process, so byte-identical verdicts prove cross-backend identity
	// under chaos. worker.kill is coordinator-side (absorbed by
	// crash-requeue, leg still exits clean); proc.kill takes the whole leg
	// down and must show real process kills.
	t.Run("ptguard-soak_proc_backend", func(t *testing.T) {
		cmd := exec.Command(filepath.Join(binDir, "ptguard-soak"),
			"-faults", "worker.kill,proc.kill",
			"-lines", "20", "-jobs", "6", "-timeout", "30s",
			"-backend", "proc", "-dist-workers", "2",
			"-worker-bin", filepath.Join(binDir, "ptguard-worker"),
			"-format", "csv", "-quiet")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("ptguard-soak: %v\n%s", err, out)
		}
		rows := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(rows) != 3 { // header + one row per fault point
			t.Fatalf("want 3 CSV rows, got %d:\n%s", len(rows), out)
		}
		for _, row := range rows[1:] {
			cells := strings.Split(row, ",")
			if len(cells) != 7 {
				t.Fatalf("malformed CSV row %q", row)
			}
			point, kills, verdict := cells[1], cells[4], cells[6]
			if !strings.Contains(verdict, "byte-identical") {
				t.Errorf("%s: resumed report diverged: %q", point, verdict)
			}
			if point == "proc.kill" && kills == "0" {
				t.Errorf("%s: cycle finished without a real process kill", point)
			}
		}
	})

	// Observability outputs: one sweep point with -metrics-out/-trace-out
	// must yield a JSONL time series with at least two snapshots per run
	// and a parseable Chrome trace_event document.
	t.Run("ptguard-sweep_obs_outputs", func(t *testing.T) {
		outDir := t.TempDir()
		metrics := filepath.Join(outDir, "metrics.jsonl")
		trace := filepath.Join(outDir, "trace.json")
		cmd := exec.Command(filepath.Join(binDir, "ptguard-sweep"),
			"-sections", "slowdown", "-workloads", "leela",
			"-warmup", "1000", "-instructions", "4000", "-quiet",
			"-metrics-out", metrics, "-trace-out", trace,
			"-snapshot-every", "1000")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("sweep with obs outputs: %v\n%s", err, out)
		}

		f, err := os.Open(metrics)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		perJob := map[string]int{}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var p struct {
				Job          string            `json:"job"`
				Instructions uint64            `json:"instructions"`
				Counters     map[string]uint64 `json:"counters"`
			}
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatalf("metrics line is not JSON: %v\n%s", err, sc.Text())
			}
			if p.Counters["cpu.instructions"] == 0 {
				t.Errorf("snapshot without cpu.instructions: %s", sc.Text())
			}
			perJob[p.Job]++
		}
		if len(perJob) == 0 {
			t.Fatal("metrics file is empty")
		}
		for job, n := range perJob {
			if n < 2 {
				t.Errorf("run %q has %d snapshots, want >= 2", job, n)
			}
		}

		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace is not Chrome trace JSON: %v", err)
		}
		var complete bool
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				complete = true
				break
			}
		}
		if !complete {
			t.Error("trace holds no complete events")
		}
	})
}
