// Command gridnode runs a standalone node agent that participates in its
// site's monitoring: it periodically pushes CPU/RAM/disk reports to the
// site proxy's local address over the (trusted, plaintext) site network,
// as notifications on one control connection that needs no login.
//
// In the reference deployment the proxy hosts its site's compute agents
// in-process (see gridproxyd's `nodes` setting); gridnode demonstrates
// the wire protocol a remote agent speaks.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridproxy/internal/node"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gridnode:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("name", "node0", "node name (unique within the site)")
	siteName := flag.String("site", "sitea", "site name")
	proxyAddr := flag.String("proxy", "127.0.0.1:7200", "site proxy local address (its local_addr)")
	interval := flag.Duration("interval", 5*time.Second, "report interval")
	speed := flag.Float64("speed", 1.0, "relative node speed")
	ramMB := flag.Int64("ram", 2048, "node RAM in MB")
	diskMB := flag.Int64("disk", 65536, "node disk in MB")
	flag.Parse()

	agent := node.New(*name, *siteName, transport.TCP{}, node.WithHW(node.HWProfile{
		Speed: *speed, RAMMB: *ramMB, DiskMB: *diskMB, RAMPerProcMB: 64,
	}))
	defer agent.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	conn, err := transport.TCP{}.Dial(ctx, *proxyAddr)
	if err != nil {
		return fmt.Errorf("dial proxy %s: %w", *proxyAddr, err)
	}
	defer conn.Close()
	w := wire.NewWriter(conn)

	fmt.Printf("gridnode %s reporting to %s every %v\n", *name, *proxyAddr, *interval)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		stats := agent.Stats()
		msg := proto.Marshal(0, stats.ToReport())
		if err := proto.WriteMessage(w, msg); err != nil {
			return fmt.Errorf("send report: %w", err)
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return nil
		}
	}
}
