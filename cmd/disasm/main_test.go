package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probedis/internal/obs"
	"probedis/internal/oracle"
	"probedis/internal/synth"
)

// writeSynthELF generates a ground-truthed binary and writes it to a
// temp file, returning the path.
func writeSynthELF(t *testing.T, funcs int) string {
	t.Helper()
	b, err := synth.Generate(synth.Config{
		Seed: 11, Profile: synth.ProfileComplex, NumFuncs: funcs,
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := b.ELF()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "synth.elf")
	if err := os.WriteFile(path, img, 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},                         // missing file argument
		{"a.elf", "b.elf"},         // too many arguments
		{"-no-such-flag", "a.elf"}, // unknown flag
	} {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Errorf("args %v: exit = %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
}

func TestMissingFileExit1(t *testing.T) {
	code, _, stderr := runCLI(t, "/nonexistent/definitely-missing.elf")
	if code != 1 || !strings.Contains(stderr, "disasm:") {
		t.Errorf("exit = %d, stderr = %q", code, stderr)
	}
}

func TestMalformedELFExit1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.elf")
	if err := os.WriteFile(path, []byte("MZ not an elf"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, path)
	if code != 1 || !strings.Contains(stderr, "disasm:") {
		t.Errorf("exit = %d, stderr = %q", code, stderr)
	}
}

func TestSummaryExit0(t *testing.T) {
	path := writeSynthELF(t, 12)
	code, stdout, stderr := runCLI(t, "-summary", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"section .text", "code bytes:", "functions:", "hints:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestSelfcheckCleanExit0(t *testing.T) {
	path := writeSynthELF(t, 12)
	code, stdout, stderr := runCLI(t, "-selfcheck", "-summary", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "selfcheck: all invariants hold") {
		t.Errorf("selfcheck output: %q", stdout)
	}
}

// TestSelfcheckViolationExit1 pins the violation→exit-code contract: any
// oracle violation must map to a nonzero (specifically 1) exit, with one
// diagnostic line per violation plus a count.
func TestSelfcheckViolationExit1(t *testing.T) {
	rep := &oracle.Report{Violations: []oracle.Violation{
		{Invariant: oracle.InvPartition, Section: ".text", Off: 16, Msg: "byte neither code nor data"},
		{Invariant: oracle.InvDeterminism, Section: ".text", Off: -1, Msg: "hint stream diverged"},
	}}
	var stderr bytes.Buffer
	if code := reportSelfcheck(rep, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	out := stderr.String()
	if strings.Count(out, "selfcheck:") != 3 { // 2 violations + summary line
		t.Errorf("diagnostics:\n%s", out)
	}
	if !strings.Contains(out, "2 violation(s)") {
		t.Errorf("missing count line:\n%s", out)
	}
	if code := reportSelfcheck(&oracle.Report{}, &stderr); code != 0 {
		t.Errorf("clean report exit = %d, want 0", code)
	}
}

func TestTracePrintsSpanTree(t *testing.T) {
	path := writeSynthELF(t, 40)
	code, stdout, stderr := runCLI(t, "-trace", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"stage trace", "disassemble", "section .text",
		"superset", "viability", "stats", "hints", "correct", "cfg",
		"calltarget", "commit", "gapfill",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
}

// TestTraceJSONConsistency: -trace-json output must parse, and span
// durations must sum consistently — children never exceed their parent,
// and the per-section stage spans account for at least 95% of the
// section's wall time (the acceptance bound is 5% unattributed). The
// coverage bound is wall-clock-sensitive (a descheduled gap between
// stages counts against it), so a run that misses it is retried before
// the test fails: the structural checks must hold on every run, the
// coverage bound on at least one.
func TestTraceJSONConsistency(t *testing.T) {
	path := writeSynthELF(t, 60)
	const attempts = 3
	var lastCoverage float64
	var lastLabel string
	for attempt := 0; attempt < attempts; attempt++ {
		code, stdout, stderr := runCLI(t, "-trace-json", path)
		if code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, stderr)
		}
		var root obs.SpanJSON
		if err := json.Unmarshal([]byte(stdout), &root); err != nil {
			t.Fatalf("-trace-json output does not parse: %v\n%s", err, stdout)
		}
		if root.Name != "disassemble" || root.DurNS <= 0 {
			t.Fatalf("root span: %+v", root)
		}

		var checkNesting func(s obs.SpanJSON)
		checkNesting = func(s obs.SpanJSON) {
			var sum int64
			for _, c := range s.Children {
				sum += c.DurNS
				checkNesting(c)
			}
			if len(s.Children) > 0 && sum > s.DurNS {
				t.Errorf("span %q: children sum %d ns > own %d ns", s.Name, sum, s.DurNS)
			}
		}
		checkNesting(root)

		sections := 0
		covered := true
		for _, c := range root.Children {
			if c.Name != "section" {
				continue
			}
			sections++
			var sum int64
			for _, st := range c.Children {
				sum += st.DurNS
			}
			if cov := float64(sum) / float64(c.DurNS); cov < 0.95 {
				covered = false
				lastCoverage, lastLabel = cov, c.Label
			}
		}
		if sections == 0 {
			t.Fatal("no section spans in JSON trace")
		}
		if covered {
			return
		}
	}
	t.Errorf("section %s: stages cover %.1f%% of wall time, want >= 95%% (%d attempts)",
		lastLabel, 100*lastCoverage, attempts)
}
