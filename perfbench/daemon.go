package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one rpqd process serving a data directory.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	drained chan struct{} // closed once rpqd's stdout hits EOF
}

// startDaemon execs rpqd on dataDir and waits for its listen line.
func startDaemon(bin, dataDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.Stderr = os.Stderr
	// rpqd must not outlive the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, started: time.Now(), drained: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rpqd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rpqd: listening on "); ok {
				addrc <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.drained:
		err := cmd.Wait()
		return nil, fmt.Errorf("rpqd exited before listening: %v", err)
	case <-time.After(120 * time.Second):
		d.stop()
		return nil, fmt.Errorf("rpqd did not listen within 120s")
	}
}

// peakRSSMB reports the process's peak resident set size (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(v)), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// resetPeakRSS restarts the process's peak RSS (VmHWM) from its current
// RSS.
func (d *daemon) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// rssWindow is the window over which rssSampler takes each peak.
const rssWindow = time.Second

// rssSampler records the daemon's peak RSS in consecutive windows.
type rssSampler struct {
	once  sync.Once
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

// sampleRSS starts recording the peak RSS of each rssWindow until finish.
// The mean window peak is steadier than the peak of the whole phase, which
// hinges on where the garbage collector happened to run.
func (d *daemon) sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		s.err = d.resetPeakRSS()
		for s.err == nil {
			var mb float64
			select {
			case <-tick.C:
				if mb, s.err = d.peakRSSMB(); s.err == nil {
					s.peaks = append(s.peaks, mb)
					s.err = d.resetPeakRSS()
				}
			case <-s.stop:
				if mb, s.err = d.peakRSSMB(); s.err == nil {
					s.peaks = append(s.peaks, mb)
				}
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the mean window peak in MiB.
// Calls after the first return the same result.
func (s *rssSampler) finish() (float64, error) {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return mean(s.peaks), s.err
}

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and
// waits until the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
}

// setupRepeats is how many times each workload starts rpqd on its data
// directory to time set-up; medians are reported.
const setupRepeats = 5

// bootAndProbe starts rpqd and returns once every probe has answered
// correctly, with the elapsed set-up time.
func bootAndProbe(cfg config, dir string, probe func(*client) error) (*daemon, *client, time.Duration, error) {
	d, err := startDaemon(cfg.rpqd, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.addr)
	if err := probe(c); err != nil {
		c.close()
		d.stop()
		return nil, nil, 0, fmt.Errorf("set-up probe: %w", err)
	}
	return d, c, time.Since(d.started), nil
}

// setUp boots rpqd setupRepeats times, keeping the last instance, and
// returns the median set-up time in seconds: from exec until every probe
// answered correctly. release, when set, frees what a probe left open
// before a discarded instance is stopped.
func setUp(cfg config, dir string, probe func(*client) error, release func()) (*daemon, *client, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		d, c, took, err := bootAndProbe(cfg, dir, probe)
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, took.Seconds())
		if i == setupRepeats-1 {
			return d, c, median(times), nil
		}
		if release != nil {
			release()
		}
		c.close()
		d.stop()
	}
}
