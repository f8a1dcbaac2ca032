// pbsfleet runs a declarative experiment grid — seeds × scenario knobs —
// across crash-isolated worker subprocesses, with per-cell leases, bounded
// retries, poison-cell quarantine, and an fsynced journal that makes a
// killed run resumable with -resume. The merged cross-scenario corpus
// lands under a manifest in <out>/merged, servable by pbslabd.
//
// Usage:
//
//	pbsfleet -grid grid.json -out runs/sweep [-workers N] [-resume]
//	pbsfleet -grid grid.json -out runs/sweep -agents host1:9070=2,host2:9070=4
//	pbsfleet -grid grid.json -out runs/sweep -secret-file fleet.secret \
//	         -listen :9301 -workers 0
//
// The worker side is this same binary: the coordinator re-execs it with
// the cell spec in the environment, so there is no separate worker binary
// to deploy or version-skew against. With -agents (or an "agents" stanza
// in the grid), cells also dispatch to remote pbsagent workers over HTTP;
// -workers 0 makes the run agents-only.
//
// Real-network hardening: -secret-file signs every agent RPC with the
// fleet's shared HMAC secret (and scrubs the secret from the journal);
// -agents-tls dials the static agents over HTTPS, with -agents-ca pinning
// a private root; -listen serves the registration endpoint so agents
// started with -register join the fleet dynamically, heartbeat to stay
// members, and are journaled so -resume rebuilds them.
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ethpbs/pbslab/internal/cli"
	"github.com/ethpbs/pbslab/internal/faults"
	"github.com/ethpbs/pbslab/internal/fleet"
	"github.com/ethpbs/pbslab/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	// Worker re-entry: when the coordinator execs us with the cell-spec
	// environment set, this call runs the cell and never returns.
	fleet.MaybeWorker()

	fs := flag.NewFlagSet("pbsfleet", flag.ContinueOnError)
	gridPath := fs.String("grid", "", "experiment grid JSON (required; see examples/fleet-grid.json)")
	outDir := fs.String("out", "", "run directory (required; journal, cells, merged corpus)")
	workers := fs.Int("workers", 4, "concurrent worker subprocesses")
	resume := fs.Bool("resume", false, "continue a killed run from its journal instead of refusing")
	retries := fs.Int("retries", 3, "failed attempts before a cell is quarantined")
	lease := fs.Duration("lease", 30*time.Second, "heartbeat deadline before a worker is reclaimed")
	heartbeat := fs.Duration("heartbeat", 0, "worker heartbeat period (default lease/5)")
	agents := fs.String("agents", "", "remote pbsagent endpoints, addr[=capacity] comma-separated (overrides the grid's agents stanza)")
	straggler := fs.Duration("straggler-after", 0, "re-dispatch a still-running cell on a second transport after this long (0 = off)")
	chaos := fs.Bool("chaos", false, "inject seeded process faults (kill/wedge/corrupt) into first attempts")
	chaosSeed := fs.Uint64("chaos-seed", 1, "seed for the chaos fault plan")
	secretFile := fs.String("secret-file", "", "fleet shared-secret file; signs every agent RPC and the registration endpoint")
	agentsTLS := fs.Bool("agents-tls", false, "dial the -agents endpoints over HTTPS")
	agentsCA := fs.String("agents-ca", "", "PEM root CA file for verifying agent TLS certificates (default: system roots)")
	listenReg := fs.String("listen", "", "serve the agent registration endpoint on this address (empty = static fleet only)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *gridPath == "" || *outDir == "" {
		fmt.Fprintln(os.Stderr, "pbsfleet: -grid and -out are required")
		fs.Usage()
		return 2
	}
	grid, err := fleet.LoadGrid(*gridPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsfleet: %v\n", err)
		return 2
	}

	opts := fleet.Options{
		Workers:        *workers,
		MaxAttempts:    *retries,
		LeaseTTL:       *lease,
		Heartbeat:      *heartbeat,
		StragglerAfter: *straggler,
		Log:            os.Stderr,
	}
	if *secretFile != "" {
		secret, err := serve.LoadSecretFile(*secretFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbsfleet: %v\n", err)
			return 2
		}
		opts.Secret = secret
	}
	if *agentsCA != "" {
		pem, err := os.ReadFile(*agentsCA)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbsfleet: -agents-ca: %v\n", err)
			return 2
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			fmt.Fprintf(os.Stderr, "pbsfleet: -agents-ca: no certificates found in %s\n", *agentsCA)
			return 2
		}
		client := &http.Client{Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: pool}}}
		opts.AgentHTTP = func(fleet.AgentSpec) *http.Client { return client }
	}
	if *agents != "" {
		hosts, err := cli.ParseHosts(*agents)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbsfleet: -agents: %v\n", err)
			return 2
		}
		for _, h := range hosts {
			opts.Agents = append(opts.Agents, fleet.AgentSpec{Addr: h.Addr, Capacity: h.Capacity, TLS: *agentsTLS})
		}
	}
	if *listenReg != "" {
		var auth *serve.Authenticator
		if len(opts.Secret) > 0 {
			auth = serve.NewAuthenticator(opts.Secret)
		} else if !cli.LoopbackAddr(*listenReg) {
			fmt.Fprintf(os.Stderr, "pbsfleet: refusing to serve the registration endpoint on %s without -secret-file: anyone who can reach the port could join the fleet and receive work\n", *listenReg)
			return 2
		}
		reg := fleet.NewRegistry(auth, 0)
		ln, err := net.Listen("tcp", *listenReg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbsfleet: -listen: %v\n", err)
			return 2
		}
		regSrv := &http.Server{Handler: reg}
		go func() { _ = regSrv.Serve(ln) }()
		defer regSrv.Close()
		opts.Registry = reg
		fmt.Fprintf(os.Stderr, "pbsfleet: registration endpoint on %s (auth %v)\n", ln.Addr(), auth != nil)
	}
	if *chaos {
		seed := *chaosSeed
		opts.WorkerEnv = func(cell fleet.Cell, attempt int) []string {
			plan := faults.ProcPlan(seed, cell.ID, cell.Slots())
			return []string{faults.ProcEnv + "=" + plan.String()}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	coord, err := fleet.NewCoordinator(*outDir, grid, opts, *resume)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsfleet: %v\n", err)
		return 2
	}
	sum, err := coord.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsfleet: %v\n", err)
		return 1
	}
	fmt.Printf("pbsfleet: %d/%d cells completed, %d quarantined; merged corpus at %s\n",
		sum.Completed, sum.Cells, len(sum.Quarantined), sum.MergedDir)
	for _, q := range sum.Quarantined {
		fmt.Printf("pbsfleet: quarantined %s: %s\n", q.ID, q.Cause)
	}
	if sum.Completed == 0 {
		return 1
	}
	return 0
}
