// Command gridctl is the grid's command-line interface (the paper's
// command-line access layer). It talks to the local site proxy over TCP.
//
// Usage:
//
//	gridctl -proxy 127.0.0.1:7200 -user alice -password secret status
//	gridctl ... members                        # membership directory: state, summary age, tunnel held
//	gridctl ... submit -program pi -procs 8 -args 1000000
//	gridctl ... wait -job <id>
//	gridctl ... cancel <id>
//	gridctl ... jobs
//	gridctl ... resources -kind node           # this site's nodes, as it reports them
//	gridctl ... resources -site siteb          # another site's, answered by that site
//	gridctl ... ping
//	gridctl ... tunnel -app tun1 -site siteb -target legacy-echo:7000 -listen 127.0.0.1:9000
//
// Data-plane commands (the content-addressed staging store, DESIGN.md §12):
//
//	gridctl ... put params.bin                 # stage a file, print its ref
//	gridctl ... get -o out.bin <hash>          # fetch a blob by hash
//	gridctl ... stat <hash>                    # is the blob staged, and how big
//	gridctl ... submit -program fit -procs 8 -in params.bin -out result-0
//	gridctl ... outputs -job <id> -fetch dir   # list/download a job's outputs
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gridproxy/internal/grid"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gridctl:", err)
		os.Exit(1)
	}
}

func run() error {
	proxyAddr := flag.String("proxy", "127.0.0.1:7200", "site proxy client address")
	user := flag.String("user", "", "grid user")
	password := flag.String("password", "", "grid password")
	timeout := flag.Duration("timeout", 60*time.Second, "operation timeout")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		return fmt.Errorf("usage: gridctl [flags] ping|status|members|submit|wait|cancel|jobs|outputs|resources|put|get|stat|tunnel")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	client, err := grid.Dial(ctx, transport.TCP{}, *proxyAddr)
	if err != nil {
		return err
	}
	defer client.Close()

	login := func() error {
		if *user == "" {
			return fmt.Errorf("-user and -password are required for this command")
		}
		return client.Login(ctx, *user, *password)
	}

	switch args[0] {
	case "ping":
		start := time.Now()
		if err := client.Ping(ctx); err != nil {
			return err
		}
		fmt.Printf("pong from %s in %v\n", *proxyAddr, time.Since(start).Round(time.Microsecond))
		return nil

	case "status":
		fs := flag.NewFlagSet("status", flag.ContinueOnError)
		sites := fs.String("sites", "", "comma-separated site filter")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if err := login(); err != nil {
			return err
		}
		var filter []string
		if *sites != "" {
			filter = strings.Split(*sites, ",")
		}
		summaries, err := client.Status(ctx, filter...)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %6s %4s %10s %12s %12s %8s %6s\n",
			"SITE", "NODES", "UP", "CPU FREE%", "RAM FREE MB", "DISK FREE MB", "LOAD", "PROCS")
		for _, s := range summaries {
			fmt.Printf("%-10s %6d %4d %10.1f %12d %12d %8.2f %6d\n",
				s.Site, s.Nodes, s.NodesUp, s.CPUFreePct, s.RAMFreeMB, s.DiskFreeMB, s.Load1, s.RunningProcs)
		}
		return nil

	case "members":
		if err := login(); err != nil {
			return err
		}
		members, err := client.Members(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-8s %5s %12s %11s %11s %7s %5s %9s %8s  %s\n",
			"SITE", "STATE", "INC", "SUMMARY AGE", "LAST HEARD", "SUSPECT FOR", "TUNNEL", "BOND", "RTT", "WND", "ADDR")
		for _, m := range members {
			age := "-"
			if m.HasSummary {
				age = m.SummaryAge.Round(time.Millisecond).String()
			}
			heard := m.LastHeard.Round(time.Millisecond).String()
			suspect := "-"
			if m.Suspected {
				suspect = m.SuspectFor.Round(time.Millisecond).String()
			}
			tunnel := "n"
			if m.Tunnel {
				tunnel = "y"
			}
			bond, rtt, wnd := "-", "-", "-"
			if m.BondConns > 0 {
				bond = fmt.Sprintf("%d", m.BondConns)
			}
			if m.RTT > 0 {
				rtt = m.RTT.Round(time.Microsecond).String()
			}
			if m.Window > 0 {
				wnd = fmt.Sprintf("%dKiB", m.Window>>10)
			}
			fmt.Printf("%-10s %-8s %5d %12s %11s %11s %7s %5s %9s %8s  %s\n",
				m.Site, m.State, m.Incarnation, age, heard, suspect, tunnel, bond, rtt, wnd, m.Addr)
		}
		return nil

	case "submit":
		fs := flag.NewFlagSet("submit", flag.ContinueOnError)
		program := fs.String("program", "", "program name installed on nodes")
		procs := fs.Int("procs", 1, "number of MPI processes")
		progArgs := fs.String("args", "", "comma-separated program arguments")
		stageIn := fs.String("in", "", "comma-separated files to stage in (each is put first)")
		stageOut := fs.String("out", "", "comma-separated output names to stage back (empty = all)")
		wait := fs.Bool("wait", false, "wait for completion")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *program == "" {
			return fmt.Errorf("-program is required")
		}
		if err := login(); err != nil {
			return err
		}
		var pargs []string
		if *progArgs != "" {
			pargs = strings.Split(*progArgs, ",")
		}
		spec := grid.JobSpec{Program: *program, Args: pargs, Procs: *procs}
		if *stageIn != "" {
			for _, path := range strings.Split(*stageIn, ",") {
				path = strings.TrimSpace(path)
				ref, err := putFile(ctx, client, filepath.Base(path), path)
				if err != nil {
					return fmt.Errorf("stage %s: %w", path, err)
				}
				fmt.Printf("staged: %s %s %d\n", ref.Name, ref.Hash, ref.Size)
				spec.StageIn = append(spec.StageIn, ref)
			}
		}
		if *stageOut != "" {
			spec.StageOut = strings.Split(*stageOut, ",")
		}
		jobID, err := client.SubmitJob(ctx, spec)
		if err != nil {
			return err
		}
		fmt.Println("job:", jobID)
		if *wait {
			if err := client.WaitJob(ctx, jobID); err != nil {
				return err
			}
			fmt.Println("job done")
		}
		return nil

	case "wait":
		fs := flag.NewFlagSet("wait", flag.ContinueOnError)
		jobID := fs.String("job", "", "job id")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *jobID == "" {
			return fmt.Errorf("-job is required")
		}
		if err := login(); err != nil {
			return err
		}
		if err := client.WaitJob(ctx, *jobID); err != nil {
			return err
		}
		fmt.Println("job done")
		return nil

	case "cancel":
		fs := flag.NewFlagSet("cancel", flag.ContinueOnError)
		jobID := fs.String("job", "", "job (application) id")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		target := *jobID
		if target == "" && fs.NArg() > 0 {
			target = fs.Arg(0)
		}
		if target == "" {
			return fmt.Errorf("usage: gridctl cancel <appID> (or -job <appID>)")
		}
		if err := login(); err != nil {
			return err
		}
		if err := client.Cancel(ctx, target); err != nil {
			return err
		}
		fmt.Println("job canceled:", target)
		return nil

	case "jobs":
		if err := login(); err != nil {
			return err
		}
		jobs, err := allJobs(ctx, client)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %-10s %s\n", "JOB", "STATE", "DETAIL")
		for _, j := range jobs {
			fmt.Printf("%-20s %-10s %s\n", j.JobID, j.State, j.Detail)
		}
		return nil

	case "put":
		fs := flag.NewFlagSet("put", flag.ContinueOnError)
		name := fs.String("name", "", "blob name visible to ranks (default: file basename)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: gridctl put [-name n] <file>")
		}
		if *name == "" {
			*name = filepath.Base(fs.Arg(0))
		}
		if err := login(); err != nil {
			return err
		}
		ref, err := putFile(ctx, client, *name, fs.Arg(0))
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %s\n%-8s %s\n%-8s %d\n", "name", ref.Name, "hash", ref.Hash, "size", ref.Size)
		return nil

	case "get":
		fs := flag.NewFlagSet("get", flag.ContinueOnError)
		out := fs.String("o", "", "output file (default: stdout)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: gridctl get [-o file] <hash>")
		}
		if err := login(); err != nil {
			return err
		}
		if *out == "" {
			_, err := client.GetTo(ctx, fs.Arg(0), os.Stdout)
			return err
		}
		return getFile(ctx, client, fs.Arg(0), *out)

	case "stat":
		fs := flag.NewFlagSet("stat", flag.ContinueOnError)
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: gridctl stat <hash>")
		}
		if err := login(); err != nil {
			return err
		}
		size, ok, err := client.Stat(ctx, fs.Arg(0))
		if err != nil {
			return err
		}
		if !ok {
			fmt.Println("not staged")
			return nil
		}
		fmt.Printf("staged, %d bytes\n", size)
		return nil

	case "outputs":
		fs := flag.NewFlagSet("outputs", flag.ContinueOnError)
		jobID := fs.String("job", "", "job id")
		fetch := fs.String("fetch", "", "download each output into this directory")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *jobID == "" {
			return fmt.Errorf("-job is required")
		}
		if err := login(); err != nil {
			return err
		}
		refs, err := client.JobOutputs(ctx, *jobID)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %10s  %s\n", "NAME", "SIZE", "HASH")
		for _, ref := range refs {
			fmt.Printf("%-20s %10d  %s\n", ref.Name, ref.Size, ref.Hash)
		}
		if *fetch != "" {
			if err := os.MkdirAll(*fetch, 0o755); err != nil {
				return err
			}
			for _, ref := range refs {
				path := filepath.Join(*fetch, filepath.Base(ref.Name))
				if err := getFile(ctx, client, ref.Hash, path); err != nil {
					return fmt.Errorf("fetch %s: %w", ref.Name, err)
				}
				fmt.Println("wrote", path)
			}
		}
		return nil

	case "resources":
		fs := flag.NewFlagSet("resources", flag.ContinueOnError)
		kind := fs.String("kind", "node", "resource kind")
		site := fs.String("site", "", "site to ask (default: the proxy's own)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if err := login(); err != nil {
			return err
		}
		resources, err := client.Resources(ctx, *site, *kind)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-12s %-10s %s\n", "SITE", "NAME", "KIND", "ATTRS")
		for _, r := range resources {
			fmt.Printf("%-10s %-12s %-10s %s\n", r.Site, r.Name, r.Kind, strings.Join(r.Attrs, " "))
		}
		return nil

	case "tunnel":
		fs := flag.NewFlagSet("tunnel", flag.ContinueOnError)
		app := fs.String("app", "", "tunnel application id (registered at the remote proxy)")
		targetSite := fs.String("site", "", "destination site")
		targetAddr := fs.String("target", "", "destination address inside the site")
		listen := fs.String("listen", "127.0.0.1:0", "local forwarder listen address")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *app == "" || *targetSite == "" || *targetAddr == "" {
			return fmt.Errorf("-app, -site and -target are required")
		}
		if err := login(); err != nil {
			return err
		}
		return runForwarder(client, *listen, *app, *targetSite, *targetAddr)

	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// runForwarder accepts local TCP connections and splices each through the
// grid's secure tunnel to the target — "tunneling of traffic between
// sites, regardless of the application used".
func runForwarder(client *grid.Client, listen, app, targetSite, targetAddr string) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("forwarding %s -> %s/%s; ctrl-c to stop\n", ln.Addr(), targetSite, targetAddr)
	for {
		local, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer local.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			remote, err := client.Tunnel(ctx, app, targetSite, targetAddr)
			cancel()
			if err != nil {
				fmt.Fprintln(os.Stderr, "tunnel open failed:", err)
				return
			}
			defer remote.Close()
			done := make(chan struct{}, 2)
			go func() { forward(remote, local); done <- struct{}{} }()
			go func() { forward(local, remote); done <- struct{}{} }()
			<-done
			<-done
		}()
	}
}

// forward copies src to dst, then half-closes dst so the far end reads
// EOF and can still answer. If dst cannot half-close, or the copy failed,
// both ends are closed so the other direction unblocks.
func forward(dst, src net.Conn) {
	if _, err := io.Copy(dst, src); err == nil && transport.CloseWrite(dst) == nil {
		return
	}
	_ = dst.Close()
	_ = src.Close()
}

// allJobs lists every owner's jobs, newest first, following the proxy's
// cursor from page to page.
func allJobs(ctx context.Context, client *grid.Client) ([]proto.JobRecord, error) {
	var all []proto.JobRecord
	var before uint64
	for {
		page, next, err := client.Jobs(ctx, "", before)
		if err != nil {
			return nil, err
		}
		all = append(all, page...)
		if next == 0 {
			return all, nil
		}
		before = next
	}
}

// putFile streams the file at path into the proxy's store under name.
func putFile(ctx context.Context, client *grid.Client, name, path string) (grid.FileRef, error) {
	f, err := os.Open(path)
	if err != nil {
		return grid.FileRef{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return grid.FileRef{}, err
	}
	return client.PutFrom(ctx, name, f, info.Size())
}

// getFile streams the blob named by hash into the file at path, through a
// ".part" file beside it: a download that fails leaves path as it was.
func getFile(ctx context.Context, client *grid.Client, hash, path string) error {
	part := path + ".part"
	f, err := os.Create(part)
	if err != nil {
		return err
	}
	_, err = client.GetTo(ctx, hash, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(part, path)
	}
	if err != nil {
		os.Remove(part)
	}
	return err
}
