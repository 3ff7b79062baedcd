// Command pfair-router fronts a set of pfaird replica groups with a
// single stateless HTTP endpoint: it shards tenants across groups under
// a pluggable placement policy, proxies writes to each group's current
// leader, fails reads over to the most caught-up follower, and promotes
// a follower when a group's leader stays down past -failover-after.
//
// Usage:
//
//	pfair-router -addr :8090 \
//	  -backends "http://a:8080,http://a2:8080;http://b:8080" \
//	  -policy rendezvous
//
// -backends groups are ';'-separated; backends within a group (one
// leader plus its followers) are ','-separated. Policies: rendezvous
// (default — deterministic, shared-nothing), round-robin, least-loaded
// (scrapes pfaird_tenants from each leader's /metrics).
//
// The router holds no durable state. Tenant placement is either
// recomputed (rendezvous) or relearned by probing the groups, so routers
// restart freely and can run in parallel behind a load balancer. -pprof
// (default on) mounts net/http/pprof under /debug/pprof/ on the same
// listener, as pfaird does. See
// TUTORIAL.md §10 for a 3-node walkthrough including a kill-the-leader
// failover demo.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"desyncpfair/internal/cluster"
)

func main() {
	var (
		addr           = flag.String("addr", ":8090", "listen address")
		backends       = flag.String("backends", "", "replica groups: ';' between groups, ',' between a group's backends")
		policy         = flag.String("policy", "rendezvous", "tenant placement policy: rendezvous, round-robin or least-loaded")
		healthInterval = flag.Duration("health-interval", 100*time.Millisecond, "backend probe period")
		failoverAfter  = flag.Duration("failover-after", 500*time.Millisecond, "promote a follower after a group is leaderless this long (0 disables)")
		grace          = flag.Duration("grace", 10*time.Second, "graceful shutdown timeout")
		pprof          = flag.Bool("pprof", true, "serve net/http/pprof profiles under /debug/pprof/")
	)
	flag.Parse()

	if err := run(context.Background(), *addr, *backends, *policy, *healthInterval, *failoverAfter, *grace, *pprof, nil); err != nil {
		log.Fatalf("pfair-router: %v", err)
	}
}

// run serves until ctx is cancelled or SIGINT/SIGTERM arrives. ready, if
// non-nil, receives the bound address — tests use it with addr ":0".
func run(ctx context.Context, addr, backends, policy string, healthInterval, failoverAfter, grace time.Duration, pprof bool, ready func(addr string)) error {
	groups, err := cluster.ParseGroups(backends)
	if err != nil {
		return err
	}
	pol, err := cluster.PolicyByName(policy)
	if err != nil {
		return err
	}
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Groups:         groups,
		Policy:         pol,
		HealthInterval: healthInterval,
		FailoverAfter:  failoverAfter,
		Logf:           log.Printf,
	})
	if err != nil {
		return err
	}
	if pprof {
		router.EnablePprof()
	}
	router.Start()
	defer router.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: router.Handler()}

	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	log.Printf("pfair-router listening on %s (%d group(s), policy %s)", ln.Addr(), len(groups), pol.Name())
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("pfair-router: forced close: %v", err)
	}
	log.Printf("pfair-router: bye")
	return nil
}
