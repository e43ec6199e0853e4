package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cliRun is one finished kprof command.
type cliRun struct {
	wall     time.Duration
	cpu      time.Duration
	rssMB    float64
	exitCode int
	stdout   []byte
	stderr   []byte
}

// kprof runs the CLI with args and waits for it to exit. Its standard
// output and error go to files, so no copying goroutine shares the host
// with the command while it is timed. The error is non-nil only when the
// command could not be run at all; a nonzero exit is reported in exitCode.
func (e *env) kprofRun(args ...string) (cliRun, error) {
	outPath := filepath.Join(e.work, "kprof.stdout")
	errPath := filepath.Join(e.work, "kprof.stderr")
	stdout, err := os.Create(outPath)
	if err != nil {
		return cliRun{}, err
	}
	defer stdout.Close()
	stderr, err := os.Create(errPath)
	if err != nil {
		return cliRun{}, err
	}
	defer stderr.Close()

	cmd := exec.Command(e.kprof, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.workers))
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return cliRun{}, fmt.Errorf("start kprof: %w", err)
	}
	waitErr := cmd.Wait()
	r := cliRun{wall: time.Since(start)}
	var exitErr *exec.ExitError
	if waitErr != nil && !errors.As(waitErr, &exitErr) {
		return cliRun{}, fmt.Errorf("wait for kprof: %w", waitErr)
	}
	ps := cmd.ProcessState
	r.exitCode = ps.ExitCode()
	r.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	if r.stdout, err = os.ReadFile(outPath); err != nil {
		return cliRun{}, err
	}
	if r.stderr, err = os.ReadFile(errPath); err != nil {
		return cliRun{}, err
	}
	return r, nil
}

// checkCLI accounts one command's exit and drain errors and returns
// whether it exited cleanly.
func (e *env) checkCLI(o *outcome, what string, r cliRun) bool {
	ok := r.exitCode == 0
	o.fails.count("exit", 1, boolInt(!ok))
	if !ok {
		o.problem("%s: kprof exited %d: %s", what, r.exitCode, firstLine(r.stderr))
	}
	// "kprof: N drain(s) failed readout ..." is the CLI's drain-error line.
	if i := bytes.Index(r.stderr, []byte(" drain(s) failed readout")); i >= 0 {
		line := r.stderr[:i]
		line = line[bytes.LastIndexByte(line, ' ')+1:]
		n, _ := strconv.Atoi(string(line))
		o.fails.count("drain", 0, max(n, 1))
	}
	return ok
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return s
}

// summaryRecords parses the record count from a summary report's header,
// "Elapsed time = 4 sec 10868 us (333097 tags)", and the corrupt-record
// count from its "Corrupt records = N (...)" line when present.
func summaryRecords(out []byte) (records, corrupt int, err error) {
	i := bytes.Index(out, []byte("Elapsed time = "))
	if i < 0 {
		return 0, 0, errors.New("no summary header in the output")
	}
	line, _, _ := strings.Cut(string(out[i:]), "\n")
	open, close := strings.LastIndexByte(line, '('), strings.LastIndex(line, " tags)")
	if open < 0 || close < open {
		return 0, 0, fmt.Errorf("unparsable summary header %q", line)
	}
	if records, err = strconv.Atoi(line[open+1 : close]); err != nil {
		return 0, 0, fmt.Errorf("unparsable summary header %q", line)
	}
	if j := bytes.Index(out, []byte("Corrupt records = ")); j >= 0 {
		fmt.Sscanf(string(out[j:]), "Corrupt records = %d", &corrupt)
	}
	return records, corrupt, nil
}

// The correctness gate runs the configurations the repository's golden
// files pin through the CLI — the path the proday and sweep workloads
// time — and fails on any byte difference.
const (
	goldenProdaySummary  = "testdata/proday_drain_seed42.summary"
	goldenProdaySegments = "testdata/proday_drain_seed42.segments"
	goldenSweep          = "testdata/sweep_proday_seeds1-2.txt"
)

// goldenProdayArgs is the configuration proday_test.go pins: seed 42, 100
// connections at 300 arrivals/s for 600 ms, drained through a 2048-record
// card.
var goldenProdayArgs = []string{"-scenario", "proday", "-drain", "-depth", "2048",
	"-duration", "600ms", "-conns", "100", "-rate", "300", "-seed", "42"}

// gateCLI runs both pinned configurations through the CLI.
func (e *env) gateCLI(o *outcome) error {
	summary, err := os.ReadFile(goldenProdaySummary)
	if err != nil {
		return err
	}
	segments, err := os.ReadFile(goldenProdaySegments)
	if err != nil {
		return err
	}
	r, err := e.kprofRun(append(goldenProdayArgs, "-segments", "-report", "summary", "-top", "15")...)
	if err != nil {
		return err
	}
	if e.checkCLI(o, "golden proday", r) {
		// Output: the workload line, a blank line, the segment table, a
		// blank line, the summary.
		line, rest, _ := bytes.Cut(r.stdout, []byte("\n\n"))
		want := append(append(append([]byte(nil), segments...), '\n'), summary...)
		if !bytes.HasPrefix(line, []byte("proday: ")) || !bytes.Equal(rest, want) {
			o.problem("golden proday: CLI output differs from %s and %s", goldenProdaySegments, goldenProdaySummary)
		}
	}

	golden, err := os.ReadFile(goldenSweep)
	if err != nil {
		return err
	}
	r, err = e.kprofRun("-scenario", "proday", "-seeds", "1..2", "-parallel", strconv.Itoa(e.workers),
		"-duration", "600ms", "-conns", "100", "-rate", "300", "-report", "sweep", "-top", "12")
	if err != nil {
		return err
	}
	if e.checkCLI(o, "golden sweep", r) {
		// The golden holds the aggregate then one "seed <workload>" line
		// per seed; the CLI prints a header naming the first seed's
		// workload, a blank line, then the aggregate.
		aggEnd := bytes.Index(golden, []byte("\nseed "))
		if aggEnd < 0 {
			return fmt.Errorf("%s has no seed lines", goldenSweep)
		}
		agg := golden[:aggEnd+1]
		firstSeed, _, _ := bytes.Cut(golden[aggEnd+len("\nseed "):], []byte("\n"))
		header, rest, _ := bytes.Cut(r.stdout, []byte("\n\n"))
		wantHeader := fmt.Sprintf("proday sweep: 2 seeds on %d workers\nfirst seed: %s", min(e.workers, 2), firstSeed)
		if string(header) != wantHeader || !bytes.Equal(rest, agg) {
			o.problem("golden sweep: CLI output differs from %s", goldenSweep)
		}
	}
	return nil
}
