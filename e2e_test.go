package gridproxy_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEndToEndBinaries builds the real binaries and drives a two-site
// grid as separate OS processes: gridca issues certificates, two
// gridproxyd daemons peer over TLS on loopback TCP, and gridctl
// authenticates, inspects status, and runs a cross-site MPI job.
func TestEndToEndBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }

	// Build the binaries once.
	for _, name := range []string{"gridca", "gridproxyd", "gridctl"} {
		cmd := exec.Command("go", "build", "-o", bin(name), "./cmd/"+name)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}

	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// CA + host certificates.
	run("gridca", "init", "-dir", "certs", "-grid", "e2e")
	run("gridca", "host", "-dir", "certs", "-name", "proxy.sitea", "-hosts", "127.0.0.1")
	run("gridca", "host", "-dir", "certs", "-name", "proxy.siteb", "-hosts", "127.0.0.1")

	// Users file.
	users := `user alice secret researchers
grant group researchers status *
grant group researchers mpi site:*
grant group researchers tunnel site:*
`
	if err := os.WriteFile(filepath.Join(dir, "users.conf"), []byte(users), 0o600); err != nil {
		t.Fatal(err)
	}

	// Pick four free ports.
	ports := freePorts(t, 4)
	wanA, localA := ports[0], ports[1]
	wanB, localB := ports[2], ports[3]

	writeConf := func(name, site string, wan, local int, peers string) {
		conf := fmt.Sprintf(`site = %s
wan_addr = 127.0.0.1:%d
local_addr = 127.0.0.1:%d
ca_dir = certs
cert = proxy.%s
users = users.conf
nodes = 2
%s`, site, wan, local, site, peers)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(conf), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeConf("sitea.conf", "sitea", wanA, localA, "")
	writeConf("siteb.conf", "siteb", wanB, localB, fmt.Sprintf("peers = sitea=127.0.0.1:%d\n", wanA))

	// Start daemon A, wait for its ports, then daemon B (which peers
	// with A on startup).
	startDaemon := func(conf string) *exec.Cmd {
		cmd := exec.Command(bin("gridproxyd"), "-config", conf)
		cmd.Dir = dir
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", conf, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		return cmd
	}
	startDaemon("sitea.conf")
	waitPort(t, localA)
	startDaemon("siteb.conf")
	waitPort(t, localB)

	// Give the peering and status exchange a moment.
	deadline := time.Now().Add(15 * time.Second)
	var statusOut string
	for time.Now().Before(deadline) {
		out, err := exec.Command(bin("gridctl"),
			"-proxy", fmt.Sprintf("127.0.0.1:%d", localB),
			"-user", "alice", "-password", "secret", "status").CombinedOutput()
		statusOut = string(out)
		if err == nil && strings.Contains(statusOut, "sitea") && strings.Contains(statusOut, "siteb") {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if !strings.Contains(statusOut, "sitea") || !strings.Contains(statusOut, "siteb") {
		t.Fatalf("status never showed both sites:\n%s", statusOut)
	}

	// Ping round trip.
	pingOut := run("gridctl", "-proxy", fmt.Sprintf("127.0.0.1:%d", localB), "ping")
	if !strings.Contains(pingOut, "pong") {
		t.Errorf("ping output: %s", pingOut)
	}

	// Cross-site MPI job via the CLI (4 procs on 2+2 nodes spans both
	// daemons).
	submitOut := run("gridctl",
		"-proxy", fmt.Sprintf("127.0.0.1:%d", localB),
		"-user", "alice", "-password", "secret",
		"submit", "-program", "pi", "-procs", "4", "-args", "100000", "-wait")
	if !strings.Contains(submitOut, "job done") {
		t.Fatalf("submit output:\n%s", submitOut)
	}

	// Resource listing: the proxy's own nodes, and another site's,
	// answered by that site.
	resOut := run("gridctl",
		"-proxy", fmt.Sprintf("127.0.0.1:%d", localB),
		"-user", "alice", "-password", "secret",
		"resources")
	if !strings.Contains(resOut, "siteb-n0") || strings.Contains(resOut, "sitea") {
		t.Errorf("resources output:\n%s", resOut)
	}
	resOut = run("gridctl",
		"-proxy", fmt.Sprintf("127.0.0.1:%d", localB),
		"-user", "alice", "-password", "secret",
		"resources", "-site", "sitea")
	if !strings.Contains(resOut, "sitea-n0") {
		t.Errorf("resources -site sitea output:\n%s", resOut)
	}
}

// freePorts reserves n distinct TCP ports and releases them. Each comes
// with the two ports above it free as well, because a local_addr also
// claims port+1 and port+2: a port picked alone can have a neighbour some
// other process holds.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			_ = ln.Close()
		}
	}()
	var ports []int
	for len(ports) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, ln)
		port := ln.Addr().(*net.TCPAddr).Port
		free := true
		for next := port + 1; next <= port+2 && free; next++ {
			nextLn, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", next))
			if free = err == nil; free {
				held = append(held, nextLn)
			}
		}
		if free {
			ports = append(ports, port)
		}
	}
	return ports
}

// waitPort blocks until something listens on 127.0.0.1:port.
func waitPort(t *testing.T, port int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			_ = conn.Close()
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("port %d never came up", port)
}
