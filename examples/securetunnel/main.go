// securetunnel: tunnel an arbitrary legacy TCP application between sites
// through the grid proxies — "tunneling of traffic between sites,
// regardless of the application used". A key-value store runs in siteb
// knowing nothing about the grid; a client in sitea reaches it through an
// explicitly-requested secure channel.
//
//	go run ./examples/securetunnel
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"gridproxy/internal/grid"
	"gridproxy/internal/site"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName: "securetunnel",
		Sites: []site.SiteSpec{
			{Name: "sitea", Nodes: site.UniformNodes(1, 1)},
			{Name: "siteb", Nodes: site.UniformNodes(1, 1)},
		},
	})
	if err != nil {
		return err
	}
	defer tb.Close()
	if err := tb.ConnectAll(ctx); err != nil {
		return err
	}

	// A legacy line-protocol KV store inside siteb. It predates the
	// grid and has no TLS, no certificates, no grid library.
	siteB := tb.Site("siteb")
	ln, err := siteB.Local.Listen("legacy-kv")
	if err != nil {
		return err
	}
	defer ln.Close()
	go serveKV(ln)

	// The destination proxy authorizes the tunnel application — the
	// paper's "explicit call" for a safe channel.
	if err := siteB.Proxy.RegisterTunnelApp("admin", "kv-tunnel"); err != nil {
		return err
	}

	// A client in sitea logs into its own proxy and opens the tunnel.
	siteA := tb.Site("sitea")
	client, err := grid.Dial(ctx, siteA.Local, siteA.LocalAddr())
	if err != nil {
		return err
	}
	defer client.Close()
	if err := client.Login(ctx, "admin", "admin"); err != nil {
		return err
	}
	conn, err := client.Tunnel(ctx, "kv-tunnel", "siteb", "legacy-kv")
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Println("tunnel up: sitea client -> proxy.sitea ==TLS==> proxy.siteb -> legacy-kv")

	// Talk the legacy protocol through the tunnel.
	r := bufio.NewReader(conn)
	exchange := func(cmd string) error {
		if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
			return err
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		fmt.Printf("  > %-20s < %s", cmd, reply)
		return nil
	}
	for _, cmd := range []string{
		"SET grid proxy-based",
		"SET year 2003",
		"GET grid",
		"GET year",
		"GET missing",
	} {
		if err := exchange(cmd); err != nil {
			return err
		}
	}
	return nil
}

// serveKV implements the legacy store: SET k v / GET k, one command per
// line.
func serveKV(ln net.Listener) {
	store := map[string]string{}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			scanner := bufio.NewScanner(conn)
			for scanner.Scan() {
				fields := strings.Fields(scanner.Text())
				switch {
				case len(fields) == 3 && fields[0] == "SET":
					store[fields[1]] = fields[2]
					fmt.Fprintln(conn, "OK")
				case len(fields) == 2 && fields[0] == "GET":
					if v, ok := store[fields[1]]; ok {
						fmt.Fprintln(conn, v)
					} else {
						fmt.Fprintln(conn, "(nil)")
					}
				default:
					fmt.Fprintln(conn, "ERR")
				}
			}
		}(conn)
	}
}
