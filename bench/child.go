package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sommelier/internal/server"
)

// child is one sommelierd process on an ephemeral loopback port.
type child struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// probe fetches /readyz and /stats; its timeout keeps a child that
// accepts but never answers from hanging the harness.
var probe = &http.Client{Timeout: 5 * time.Second}

// freePort asks the kernel for an unused loopback port. sommelierd
// cannot report a port it picked itself, so the port is released and
// handed over; startChild's caller retries on the rare lost race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild execs sommelierd and waits for /readyz. Cancelling ctx
// kills the process.
func startChild(ctx context.Context, bin string, args []string, logPath string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			return nil, fmt.Errorf("start sommelierd: %w", err)
		}
		c := &child{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
		go func() {
			c.err = cmd.Wait()
			close(c.done)
		}()
		if lastErr = c.waitReady(ctx); lastErr == nil {
			return c, nil
		}
		c.kill()
	}
	return nil, fmt.Errorf("sommelierd never became ready (log: %s): %w", logPath, lastErr)
}

func (c *child) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("exited before ready: %v", c.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := probe.Get(c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("no 200 from /readyz within 60s")
}

// stop asks for the graceful shutdown (drain, spill, snapshots) and
// waits for the process to end.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-c.done:
		return c.err
	case <-time.After(60 * time.Second):
		c.kill()
		return fmt.Errorf("sommelierd ignored SIGTERM for 60s")
	}
}

// kill ends the process if it is still running and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine
	<-c.done
}

func (c *child) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := probe.Get(c.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// rssPeakMB is the child's VmHWM, the high-water mark of its resident
// set.
func (c *child) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}
