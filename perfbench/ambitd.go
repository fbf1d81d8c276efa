package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"sync"
	"syscall"
	"time"

	"ambit/internal/service/loadgen"
)

// maxConns is the load shape's connection cap: one per tenant.
const maxConns = tenants

// newHTTPClient returns a loopback client capped at maxConns connections.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
}

// server is one running cmd/ambitd process.
type server struct {
	cmd     *exec.Cmd
	pid     int
	client  *loadgen.Client
	drained chan struct{} // closed when ambitd's stdout reaches EOF
}

var servingRE = regexp.MustCompile(`serving on (http://[0-9.]+:[0-9]+)`)

// startServer starts ambitd on an ephemeral loopback port and waits until
// /healthz answers.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ambitd: %w", err)
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, drained: make(chan struct{})}
	track(s)
	base := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case base <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case b := <-base:
		s.client = &loadgen.Client{Base: b, HTTP: newHTTPClient()}
	case <-s.drained:
		s.stop()
		return nil, fmt.Errorf("ambitd exited before serving")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("ambitd did not report its address")
	}
	if err := s.client.WaitHealthy(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop terminates ambitd and waits for it to exit; calling it again is a
// no-op.
func (s *server) stop() {
	if !untrack(s) {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	_ = s.cmd.Wait()
	if t, ok := s.client.HTTP.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

func (s *server) cpu() (time.Duration, error) { return procCPU(s.pid) }

// children is every ambitd still running, so a signal or an early exit can
// stop them all.
var children struct {
	sync.Mutex
	set map[*server]bool
}

func track(s *server) {
	children.Lock()
	defer children.Unlock()
	if children.set == nil {
		children.set = map[*server]bool{}
	}
	children.set[s] = true
}

func untrack(s *server) bool {
	children.Lock()
	defer children.Unlock()
	if !children.set[s] {
		return false
	}
	delete(children.set, s)
	return true
}

func stopChildren() {
	children.Lock()
	var all []*server
	for s := range children.set {
		all = append(all, s)
	}
	children.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// stopOnSignal stops every child and exits when the run is interrupted.
func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.Exit(130)
	}()
}
