// Command esdserve runs the sharded ESD engine as a network service: an
// HTTP/JSON API (and optionally the raw-TCP binary protocol) over N
// concurrent shards, with per-request timeouts, load shedding on full
// shard queues, and graceful drain on SIGINT/SIGTERM.
//
// Examples:
//
//	esdserve -addr :8080 -scheme esd -shards 4
//	esdserve -addr :8080 -tcp-addr :8081 -metrics -pprof
//	esdload -addr http://localhost:8080 -n 100000 -workers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/sim"
)

func main() {
	if err := cliMain(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "esdserve:", err)
		os.Exit(1)
	}
}

// cliMain is the testable body: parse flags, boot the engine and server,
// then block until a signal (or the ready hook's returned channel closes,
// in tests) and drain. ready, when non-nil, receives the running server
// and returns a channel whose close triggers shutdown.
func cliMain(args []string, stdout io.Writer, ready func(*server.Server) <-chan struct{}) error {
	fs := flag.NewFlagSet("esdserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr      = fs.String("addr", ":8080", "HTTP listen address")
		tcpAddr   = fs.String("tcp-addr", "", "also serve the binary protocol on this address")
		scheme    = fs.String("scheme", "esd", "scheme: baseline, dedup-sha1, dewrite, esd, bcd, esd+caram")
		shards    = fs.Int("shards", 4, "number of independent shards")
		queue     = fs.Int("queue-depth", 128, "per-shard request queue bound")
		batch     = fs.Int("batch", 32, "max requests a shard drains per wakeup")
		coalesce  = fs.Bool("coalesce", false, "coalesce same-address writes within a batch")
		timeout   = fs.Duration("timeout", 2*time.Second, "per-request service budget")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget before force-closing connections")
		metrics   = fs.Bool("metrics", false, "expose per-shard metrics at /metrics")
		pprofFlag = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (needs -metrics)")
		gapNs     = fs.Int("issue-gap-ns", 10, "simulated time between requests on one shard, in ns")
		seed      = fs.Uint64("seed", 1, "configuration seed")
		tracing   = fs.Bool("trace", true, "record per-stage latency histograms (served at /statusz)")
		slow      = fs.Duration("slow", 0, "log requests slower than this wall-clock duration (0 disables)")
		flightSz  = fs.Int("flight-size", 0, "per-shard flight-recorder ring size (0 = default 256)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofFlag && !*metrics {
		return fmt.Errorf("-pprof needs -metrics")
	}

	cfg := config.Default()
	cfg.Seed = *seed
	eng, err := shard.New(cfg, *scheme, shard.Options{
		Shards:      *shards,
		QueueDepth:  *queue,
		Batch:       *batch,
		Coalesce:    *coalesce,
		IssueGap:    sim.Time(*gapNs) * sim.Nanosecond,
		Metrics:     *metrics,
		Tracing:     *tracing,
		FlightSlots: *flightSz,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	srv, err := server.New(eng, server.Config{
		Addr:                 *addr,
		TCPAddr:              *tcpAddr,
		RequestTimeout:       *timeout,
		Pprof:                *pprofFlag,
		SlowRequestThreshold: *slow,
	})
	if err != nil {
		return err
	}

	// SIGQUIT (or kill -QUIT) dumps the flight recorder to stderr without
	// stopping the server — the classic "what was it just doing?" probe.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			srv.DumpFlightRecorder(os.Stderr)
		}
	}()
	fmt.Fprintf(stdout, "esdserve: scheme=%s shards=%d http=%s", *scheme, eng.NumShards(), srv.Addr())
	if srv.TCPAddr() != "" {
		fmt.Fprintf(stdout, " tcp=%s", srv.TCPAddr())
	}
	fmt.Fprintln(stdout)

	var stop <-chan struct{}
	if ready != nil {
		stop = ready(srv)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		ch := make(chan struct{})
		go func() { <-sig; close(ch) }()
		stop = ch
	}
	<-stop

	fmt.Fprintln(stdout, "esdserve: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	sum, err := eng.Summary()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "esdserve: drained clean  writes=%d reads=%d dedup=%.1f%% shed=%d\n",
		sum.Scheme.Writes, sum.Scheme.Reads, sum.Scheme.DedupRate()*100, sum.Shed)
	return nil
}
