// Command gridbcastd serves broadcast plans over HTTP/JSON: a platform
// registry of warmed, cache-enabled sessions, POST /v1/plan and
// /v1/plan/batch planning endpoints, GET /v1/platforms, /healthz and
// /metrics, bounded admission, SIGHUP (or POST /admin/reload) hot reload
// and graceful SIGTERM drain. See DESIGN.md §13.
//
// Usage:
//
//	gridbcastd -listen :8080 -platform grid5000=grid5000 \
//	    -platform lab=measured.fits
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridbcast/internal/service"
)

type platformFlags []service.PlatformSpec

func (p *platformFlags) String() string { return fmt.Sprintf("%v", []service.PlatformSpec(*p)) }

func (p *platformFlags) Set(s string) error {
	spec, err := service.ParsePlatformSpec(s)
	if err != nil {
		return err
	}
	*p = append(*p, spec)
	return nil
}

// Connection timeouts: a client that trickles its headers or body, or parks
// an idle keep-alive connection, is cut off instead of holding it forever.
// writeTimeout runs from the end of the request headers to the end of the
// response, so it covers reading the body (at most readTimeout), planning
// (at most service.MaxDeadline, the cap on deadline_ms and -timeout) and
// encoding and writing the reply, which writeMargin bounds.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	writeMargin       = time.Minute
	writeTimeout      = readTimeout + service.MaxDeadline + writeMargin
)

// newHTTPServer builds the daemon's HTTP server.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridbcastd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gridbcastd", flag.ContinueOnError)
	var platforms platformFlags
	fs.Var(&platforms, "platform", "platform to serve, as name=source; repeatable.\nSources: grid5000 | random:<seed>:<clusters> | file.fits | file.json")
	listen := fs.String("listen", ":8080", "address to serve HTTP on")
	maxInflight := fs.Int("max-inflight", service.DefaultMaxInflight, "max concurrently admitted planning requests (excess get 429)")
	timeout := fs.Duration("timeout", service.DefaultPlanTimeout, "default planning deadline for requests without deadline_ms (at most "+service.MaxDeadline.String()+")")
	cacheCap := fs.Int("cache-cap", 0, "plan-cache capacity per platform session (0 sizes from -max-inflight)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > service.MaxDeadline {
		return fmt.Errorf("-timeout %v exceeds the planning deadline cap %v", *timeout, service.MaxDeadline)
	}
	if len(platforms) == 0 {
		// A daemon with nothing to serve is a configuration mistake, not a
		// useful default.
		return errors.New("no platforms configured: pass at least one -platform name=source")
	}
	if *cacheCap <= 0 {
		*cacheCap = service.CacheCapacityFor(*maxInflight)
	}

	logger := log.New(os.Stderr, "gridbcastd: ", log.LstdFlags)
	reg, err := service.NewRegistry(platforms, *cacheCap)
	if err != nil {
		return err
	}
	srv := service.New(reg, service.Config{
		MaxInflight:    *maxInflight,
		DefaultTimeout: *timeout,
		Log:            logger,
	})

	httpSrv := newHTTPServer(*listen, srv.Handler())

	// SIGHUP hot-reloads the registry; SIGTERM/SIGINT drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)

	errc := make(chan error, 1)
	go func() {
		logger.Printf("serving %d platform(s) on %s (generation %d, max-inflight %d, cache %d/platform)",
			len(reg.Names()), *listen, reg.Generation(), *maxInflight, *cacheCap)
		errc <- httpSrv.ListenAndServe()
	}()

	for {
		select {
		case <-hup:
			if gen, err := reg.Reload(); err != nil {
				logger.Printf("SIGHUP reload failed (still serving generation %d): %v", gen, err)
			} else {
				logger.Printf("SIGHUP reload: now serving generation %d", gen)
			}
		case sig := <-stop:
			logger.Printf("%v: draining in-flight requests", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			logger.Printf("drained, exiting")
			return nil
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	}
}
