// pbsagent is the fleet's remote worker agent: a thin HTTP(S) server that
// accepts cell assignments from a pbsfleet coordinator, runs them as
// crash-isolated subprocesses of this same binary, streams heartbeats
// back, and serves the finished artifacts for digest-verified download.
// Agents hold no coordinator address and initiate nothing — except with
// -register, where the agent announces itself to the coordinator's
// registry and heartbeats to stay a member.
//
// Usage:
//
//	pbsagent -listen 127.0.0.1:9070 -scratch /tmp/agent1 [-capacity N]
//	pbsagent -listen :9070 -scratch /srv/agent -secret-file fleet.secret \
//	         -tls-cert agent.crt -tls-key agent.key \
//	         -register http://coord:9301 -advertise agent1.lan:9070
//
// Secure by default: listening beyond loopback requires a fleet secret
// (-secret-file) or an explicit -insecure. TLS is optional but
// recommended off-host; the shared-secret HMAC authenticates every API
// request either way (only /healthz stays open).
//
// SIGINT/SIGTERM drains: the agent deregisters (with -register), new
// assignments are refused with 503 + a draining marker, running cells get
// a bounded grace period to finish, then the server exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ethpbs/pbslab/internal/agent"
	"github.com/ethpbs/pbslab/internal/cli"
	"github.com/ethpbs/pbslab/internal/fleet"
	"github.com/ethpbs/pbslab/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	// Worker re-entry: when the agent execs us with the cell-spec
	// environment set, this call runs the cell and never returns.
	fleet.MaybeWorker()

	fs := flag.NewFlagSet("pbsagent", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9070", "listen address")
	scratch := fs.String("scratch", "", "scratch directory for staging and checkpoints (required)")
	capacity := fs.Int("capacity", 2, "concurrent cell runs before shedding 429")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint sent with 429/503 sheds")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for running cells on shutdown")
	secretFile := fs.String("secret-file", "", "fleet shared-secret file; every API request must carry its HMAC signature")
	tlsCert := fs.String("tls-cert", "", "TLS certificate file (serve HTTPS; requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "TLS private key file")
	insecure := fs.Bool("insecure", false, "allow listening beyond loopback with no -secret-file (NOT recommended)")
	register := fs.String("register", "", "coordinator registry base URL to announce to, e.g. http://coord:9301")
	advertise := fs.String("advertise", "", "dialable host:port announced to the coordinator (default: -listen when it names a host)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *scratch == "" {
		fmt.Fprintln(os.Stderr, "pbsagent: -scratch is required")
		fs.Usage()
		return 2
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		fmt.Fprintln(os.Stderr, "pbsagent: -tls-cert and -tls-key must be set together")
		return 2
	}
	var secret []byte
	if *secretFile != "" {
		var err error
		if secret, err = serve.LoadSecretFile(*secretFile); err != nil {
			fmt.Fprintf(os.Stderr, "pbsagent: %v\n", err)
			return 2
		}
	}
	if len(secret) == 0 && !cli.LoopbackAddr(*listen) && !*insecure {
		fmt.Fprintf(os.Stderr, "pbsagent: refusing to listen on %s without a fleet secret: anyone who can reach the port could dispatch work and read artifacts.\nSet -secret-file (see README), bind loopback, or pass -insecure to accept the risk.\n", *listen)
		return 2
	}

	ag, err := agent.New(agent.Config{
		Scratch:      *scratch,
		Capacity:     *capacity,
		RetryAfter:   *retryAfter,
		DrainTimeout: *drainTimeout,
		Secret:       secret,
		Log:          os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsagent: %v\n", err)
		return 2
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsagent: %v\n", err)
		return 2
	}
	srv := &http.Server{Handler: ag.Handler()}
	errc := make(chan error, 1)
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
		go func() { errc <- srv.ServeTLS(l, *tlsCert, *tlsKey) }()
	} else {
		go func() { errc <- srv.Serve(l) }()
	}
	fmt.Fprintf(os.Stderr, "pbsagent: serving on %s://%s (capacity %d, scratch %s, auth %v)\n",
		scheme, l.Addr(), *capacity, *scratch, len(secret) > 0)

	var rg *agent.Registrar
	regCtx, regStop := context.WithCancel(context.Background())
	defer regStop()
	regDone := make(chan struct{})
	close(regDone)
	if *register != "" {
		addr := *advertise
		if addr == "" {
			if host, _, err := net.SplitHostPort(*listen); err != nil || host == "" {
				fmt.Fprintln(os.Stderr, "pbsagent: -register with a wildcard -listen needs -advertise (the coordinator must know a dialable address)")
				return 2
			}
			addr = *listen
		}
		var auth *serve.Authenticator
		if len(secret) > 0 {
			auth = serve.NewAuthenticator(secret)
		}
		rg = &agent.Registrar{
			Coordinator: *register,
			Self: fleet.RegisterRequest{
				Addr:     addr,
				Capacity: *capacity,
				TLS:      *tlsCert != "",
				Boot:     agent.NewBootID(),
			},
			Auth: auth,
			Log:  os.Stderr,
		}
		regDone = make(chan struct{})
		go func() { defer close(regDone); rg.Run(regCtx) }()
		fmt.Fprintf(os.Stderr, "pbsagent: registering with %s as %s\n", *register, addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "pbsagent: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "pbsagent: %v: draining\n", s)
	}
	// Deregister first so the coordinator stops dispatching here while the
	// drain finishes in-flight cells.
	regStop()
	<-regDone
	if !ag.Drain() {
		fmt.Fprintln(os.Stderr, "pbsagent: drain timed out; running cells killed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pbsagent: shutdown: %v\n", err)
		return 1
	}
	return 0
}
