// Command irtt is the isochronous RTT measurement tool this
// reproduction uses the way the paper used iRTT: a UDP server echoes
// timestamped probes, and a client sends them on a strict interval
// (the study's rate: 1 packet / 20 ms) and reports per-probe RTTs and
// loss.
//
// Server:
//
//	irtt -server -listen 127.0.0.1:9300
//
// The server can put the full simulated Starlink path under every
// probe, turning a loopback run into a live Figure-2 trace:
//
//	irtt -server -listen 127.0.0.1:9300 -simulate -terminal Madrid -scale small
//
// Client:
//
//	irtt -addr 127.0.0.1:9300 -interval 20ms -count 500 [-tsv trace.tsv]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/irtt"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

func main() {
	var (
		server   = flag.Bool("server", false, "run as server")
		listen   = flag.String("listen", "127.0.0.1:9300", "server: listen address")
		simulate = flag.Bool("simulate", false, "server: inject the simulated Starlink path delay")
		terminal = flag.String("terminal", "Madrid", "server: simulated terminal")
		scale    = flag.String("scale", "small", "server: constellation density of the starlink-baseline preset")
		seed     = flag.Int64("seed", 7, "server: simulation seed")
		addr     = flag.String("addr", "127.0.0.1:9300", "client: server address")
		interval = flag.Duration("interval", 20*time.Millisecond, "client: probe interval")
		count    = flag.Int("count", 500, "client: number of probes")
		tsvPath  = flag.String("tsv", "", "client: write per-probe results as TSV to this file")
	)
	flag.Parse()

	var err error
	if *server {
		err = runServer(*listen, *simulate, *terminal, *scale, *seed)
	} else {
		err = runClient(*addr, *interval, *count, *tsvPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "irtt:", err)
		os.Exit(1)
	}
}

func runServer(listen string, simulate bool, terminal, scale string, seed int64) error {
	var delay irtt.DelayFunc
	if simulate {
		spec, err := scenario.Starlink(scale, seed)
		if err != nil {
			return err
		}
		built, err := spec.Build(scenario.BuildOptions{})
		if err != nil {
			return err
		}
		env := built.Env
		var path *netsim.Path
		for _, t := range env.Terminals {
			if t.Name == terminal {
				path, err = netsim.NewPath(netsim.Config{
					Constellation: env.Cons,
					Scheduler:     env.Sched,
					Terminal:      t,
					Seed:          seed,
				})
				if err != nil {
					return err
				}
			}
		}
		if path == nil {
			return fmt.Errorf("unknown terminal %q", terminal)
		}
		// Map wall time onto the simulation's clock.
		wallStart := time.Now()
		simStart := env.Start()
		delay = func(arrival time.Time) (time.Duration, bool) {
			s, err := path.Probe(simStart.Add(arrival.Sub(wallStart)))
			if err != nil || s.Lost {
				return 0, true
			}
			return time.Duration(s.RTTms * float64(time.Millisecond)), false
		}
		fmt.Fprintf(os.Stderr, "irtt: simulating the %s terminal's path (%d satellites)\n",
			terminal, env.Cons.Len())
	}
	srv, err := irtt.NewServer(listen, delay)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "irtt: serving on %s\n", srv.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = srv.Serve(ctx)
	if ctx.Err() != nil {
		return nil
	}
	return err
}

func runClient(addr string, interval time.Duration, count int, tsvPath string) error {
	results, err := irtt.Run(context.Background(), addr, irtt.ClientConfig{
		Interval: interval,
		Count:    count,
	})
	if err != nil {
		return err
	}
	sum := irtt.Summarize(results)
	fmt.Printf("sent %d, received %d (%.2f%% loss)\n", sum.Sent, sum.Received, sum.LossRate*100)
	if sum.Received > 0 {
		fmt.Printf("rtt min/median/max = %v / %v / %v\n", sum.MinRTT, sum.MedianRTT, sum.MaxRTT)
		fmt.Printf("rtt p95/p99 = %v / %v\n", sum.P95RTT, sum.P99RTT)
	}
	if tsvPath != "" {
		f, err := os.Create(tsvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "seq\tsend_time\trtt_ms\tlost")
		for _, r := range results {
			lost := 0
			rtt := float64(r.RTT) / float64(time.Millisecond)
			if r.Lost {
				lost = 1
				rtt = 0
			}
			fmt.Fprintf(f, "%d\t%s\t%.3f\t%d\n", r.Seq, r.SendTime.UTC().Format(time.RFC3339Nano), rtt, lost)
		}
		fmt.Printf("wrote %s\n", tsvPath)
	}
	return nil
}
