// Command widxserve runs the experiment registry as a long-running sweep
// service, and doubles as its command-line client.
//
// Daemon mode (-listen) serves the internal/serve HTTP+JSON API: submit
// runs and full-factorial sweeps, poll or stream per-point progress, and
// fetch finished manifests and reports. Finished points persist in a
// content-addressed result store (-store), so resubmitting a sweep — or
// any sweep sharing points with an earlier one — is served from disk
// with zero re-simulations. With -workers the daemon is a coordinator:
// it simulates nothing itself, stripes each grid round-robin across the
// listed worker daemons (a single run is a one-point grid), and merges
// their index-tagged results into a report byte-identical to a
// single-process run.
//
//	widxserve -listen :8091 -store /var/tmp/widx-results
//	widxserve -listen :8090 -workers http://h1:8091,http://h2:8091
//
// Client mode (-addr) mirrors the cmd/experiments surface against a
// daemon:
//
//	widxserve -addr http://h1:8090 -list
//	widxserve -addr http://h1:8090 -run cmp -set agents=1xooo+4xwidx:4w \
//	          -sweep llc-ways=0,8,4,2 -scale 0.125 -sample 2000 [-json]
//	widxserve -addr http://h1:8090 -run kernel -sampling -sample-windows 30
//	widxserve -addr http://h1:8090 -status j000001 | -cancel j000001 | -statusz
//
// -sampling asks the server for systematic sampled simulation (detailed
// windows + functional fast-forward; internal/sampling): the manifest
// gains a `sampling` block with 95% confidence intervals, sampled points
// key separately in the result store, and /statusz counts them. The
// daemon-side -warm-store persists fast-forward checkpoints and CMP
// warm-ups across restarts.
//
// A client -run submits, streams progress to stderr, and prints the
// finished report (or, with -json, the widx-experiment-manifest/v1) to
// stdout — byte-identical to running cmd/experiments locally at the
// same flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"widx/internal/exp"
	"widx/internal/serve"
)

func main() {
	// Daemon flags.
	listen := flag.String("listen", "", "serve the HTTP API on this address (daemon mode)")
	store := flag.String("store", "", "persistent result store directory (empty = no persistence)")
	workers := flag.String("workers", "", "comma-separated worker base URLs (coordinator mode)")
	warmCache := flag.Bool("warm-cache", true, "share warm state across the daemon's jobs (results are byte-identical either way)")
	warmVerify := flag.Bool("warm-cache-verify", false, "rebuild on every warm-cache hit and cross-check content hashes (slow)")
	warmStore := flag.String("warm-store", "", "persist warm-state snapshots (fast-forward checkpoints, CMP warm-ups) under this directory across daemon restarts")

	// Client flags.
	addr := flag.String("addr", "", "widxserve base URL to talk to (client mode)")
	run := flag.String("run", "", "submit one experiment (or sweep, with -sweep) and wait for its report")
	set := exp.KVFlag{}
	flag.Var(set, "set", "override one experiment parameter as key=value (repeatable)")
	var axes exp.AxisFlag
	flag.Var(&axes, "sweep", "sweep one parameter axis as key=v1,v2,... (repeatable; axes form a grid)")
	jsonOut := flag.Bool("json", false, "print the run manifest instead of the text report")
	scale := flag.Float64("scale", 0, "workload scale (0 = server default, which matches the CLI default)")
	sample := flag.Int("sample", -1, "probes simulated in detail (-1 = server default; 0 = all)")
	strictOrder := flag.Bool("strict-order", false, "assert monotonic memory order (debug)")
	samplingOn := flag.Bool("sampling", false, "systematic sampled simulation: detailed windows + functional fast-forward, 95% CIs in the manifest")
	sampleWindows := flag.Int("sample-windows", 30, "detailed windows per design point (with -sampling)")
	sampleWarmup := flag.Int("sample-warmup", -1, "detailed-but-unmeasured probes per window (-1 = server default)")
	samplePeriod := flag.Int("sample-period", 0, "measured probes per window (0 = server default)")
	quiet := flag.Bool("quiet", false, "suppress the per-point progress lines on stderr")
	list := flag.Bool("list", false, "list the server's registered experiments")
	statusz := flag.Bool("statusz", false, "print the server counters")
	status := flag.String("status", "", "print one job's status")
	cancel := flag.String("cancel", "", "cancel one job")

	// Shared: daemon worker-pool default, client request pin.
	parallel := flag.Int("parallel", 0, "sim worker-pool width (0 = NumCPU)")
	flag.Parse()

	switch {
	case *listen != "" && *addr != "":
		fail(fmt.Errorf("-listen and -addr are mutually exclusive"))
	case *listen != "":
		var ws []string
		if *workers != "" {
			ws = strings.Split(*workers, ",")
		}
		daemon(*listen, serve.Options{
			StoreDir:     *store,
			Workers:      ws,
			WarmCache:    *warmCache,
			WarmVerify:   *warmVerify,
			WarmStoreDir: *warmStore,
			Parallel:     *parallel,
			Logf:         log.Printf,
		})
	case *addr != "":
		cfg := serve.ConfigSpec{Scale: *scale, Parallel: *parallel, StrictOrder: *strictOrder}
		if *sample >= 0 {
			s := *sample
			cfg.Sample = &s
		}
		if *samplingOn {
			cfg.SampleWindows = *sampleWindows
		}
		if *sampleWarmup >= 0 {
			w := *sampleWarmup
			cfg.SampleWarmup = &w
		}
		cfg.SamplePeriod = *samplePeriod
		client(*addr, clientArgs{
			run: *run, set: set, axes: axes, cfg: cfg, json: *jsonOut, quiet: *quiet,
			list: *list, statusz: *statusz, status: *status, cancel: *cancel,
		})
	default:
		fail(fmt.Errorf("pick a mode: -listen ADDR (daemon) or -addr URL (client); see -h"))
	}
}

// daemon serves the API until SIGINT/SIGTERM.
func daemon(listen string, opts serve.Options) {
	s, err := serve.New(opts)
	if err != nil {
		fail(err)
	}
	mode := "worker"
	if len(opts.Workers) > 0 {
		mode = fmt.Sprintf("coordinator over %v", opts.Workers)
	}
	log.Printf("widxserve: %s (build %s) listening on %s", mode, s.Build(), listen)
	if opts.StoreDir != "" {
		log.Printf("widxserve: result store at %s", opts.StoreDir)
	}

	srv := &http.Server{Addr: listen, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("widxserve: shutting down")
		srv.Shutdown(context.Background())
		s.Close()
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fail(err)
	}
}

type clientArgs struct {
	run     string
	set     map[string]string
	axes    []exp.Axis
	cfg     serve.ConfigSpec
	json    bool
	quiet   bool
	list    bool
	statusz bool
	status  string
	cancel  string
}

// client performs one API interaction against a daemon.
func client(addr string, a clientArgs) {
	c := serve.NewClient(addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case a.list:
		infos, err := c.Experiments(ctx)
		if err != nil {
			fail(err)
		}
		for _, in := range infos {
			line := in.Name
			if len(in.Aliases) > 0 {
				line += " (" + strings.Join(in.Aliases, ", ") + ")"
			}
			fmt.Println(line)
		}
	case a.statusz:
		sz, err := c.Statusz(ctx)
		if err != nil {
			fail(err)
		}
		fmt.Printf("build:            %s\n", sz.Build)
		fmt.Printf("mode:             %s\n", sz.Mode)
		fmt.Printf("simulated points: %d\n", sz.SimulatedPoints)
		fmt.Printf("sampled points:   %d\n", sz.SampledPoints)
		if sz.ResultStore != nil {
			fmt.Printf("result store:     %d entries, %d hits, %d misses\n",
				sz.ResultStore.Entries, sz.ResultStore.Hits, sz.ResultStore.Misses)
		}
		if sz.WarmCache != nil {
			fmt.Printf("warm cache:       %d hits, %d misses\n", sz.WarmCache.Hits, sz.WarmCache.Misses)
		}
	case a.status != "":
		st, err := c.Status(ctx, a.status)
		if err != nil {
			fail(err)
		}
		printStatus(st)
	case a.cancel != "":
		st, err := c.Cancel(ctx, a.cancel)
		if err != nil {
			fail(err)
		}
		printStatus(st)
	case a.run != "":
		runJob(ctx, c, a)
	default:
		fail(fmt.Errorf("client mode needs one of -run, -list, -statusz, -status, -cancel"))
	}
}

// runJob submits, streams progress, and prints the finished artifact.
func runJob(ctx context.Context, c *serve.Client, a clientArgs) {
	req := serve.SubmitRequest{Experiment: a.run, Set: a.set, Sweep: a.axes, Config: a.cfg}
	st, err := c.Submit(ctx, req)
	if err != nil {
		fail(err)
	}
	if !a.quiet {
		fmt.Fprintf(os.Stderr, "widxserve: job %s submitted\n", st.ID)
	}
	st, err = c.Watch(ctx, st.ID, func(ev serve.Event) {
		if a.quiet {
			return
		}
		switch {
		case ev.Type == "point" && ev.Cached:
			fmt.Fprintf(os.Stderr, "widxserve: point %d/%d (cached)\n", ev.Done, ev.Total)
		case ev.Type == "point":
			fmt.Fprintf(os.Stderr, "widxserve: point %d/%d\n", ev.Done, ev.Total)
		}
	})
	if err != nil {
		// Interrupted mid-watch: leave the job cancelled, not orphaned.
		if ctx.Err() != nil {
			cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer ccancel()
			c.Cancel(cctx, st.ID)
		}
		fail(err)
	}
	if st.State != serve.JobDone {
		fail(fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
	}
	var out []byte
	if a.json {
		out, err = c.Manifest(ctx, st.ID)
	} else if out, err = c.Text(ctx, st.ID); err == nil {
		// The separator newline cmd/experiments prints after a report.
		out = append(out, '\n')
	}
	if err != nil {
		fail(err)
	}
	os.Stdout.Write(out)
}

func printStatus(st serve.JobStatus) {
	fmt.Printf("job:    %s\n", st.ID)
	fmt.Printf("state:  %s\n", st.State)
	fmt.Printf("points: %d/%d done, %d cached\n", st.Done, st.Total, st.Cached)
	if st.Error != "" {
		fmt.Printf("error:  %s\n", st.Error)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "widxserve:", err)
	os.Exit(1)
}
