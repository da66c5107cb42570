package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"groupcast/internal/node"
	"groupcast/internal/transport"
)

const (
	// Rounds is how many rounds every statistic is taken over; the reported
	// value is the median of the rounds' values.
	Rounds = 5
	// traceFileLimit caps how many publishes' spans -trace-out writes.
	traceFileLimit = 2000
	// heapBallast is never-touched, pointer-free memory held for the whole
	// run so the collector starts a cycle about every 64 MiB allocated. The
	// cluster's own live heap is 0–4 MB and grows as windows and caches fill;
	// against Go's 4 MB minimum heap that growth alone moved capacity from 21 k
	// to 34 k msgs/s across the five rounds of one run (≈500→300 cycles/s), so
	// the numbers measured the heap's size, not the code.
	heapBallast = 64 << 20
)

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the measured time. Untraced, each of the five rounds spends
	// a tenth of it in phase w1 and a tenth in w16. Traced, two fifths go to
	// those rounds, one fifth to the traced w1 pass and two fifths to the
	// layer pass.
	Seconds float64
	// Trace selects the per-layer metrics (a traced second cluster and the
	// layer pass) instead of the end-to-end ones.
	Trace bool
	// Setups is how many times the cluster is set up for setup_s (the last
	// one is measured on); 0 means 5.
	Setups int
	// TraceOut, when set on a traced run, receives the spans as NDJSON.
	TraceOut string
	// Log receives the human-readable report; nil discards it.
	Log io.Writer
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's last output line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// clusterRun is everything measured on one cluster.
type clusterRun struct {
	setups     []time.Duration
	bootstraps []time.Duration
	joins      []time.Duration
	w1, w16    []PhaseResult // one per round
	measured   uint64        // first publish index after warm-up
	stats      node.Stats    // summed over nodes, warm-up end → run end
	coalesced  uint64
	attempted  int64
	failed     int64
	detail     string
	leaked     int
}

// runCluster sets the cluster up (setups times, keeping the last), warms it
// up, runs the rounds, re-verifies the tree, closes everything and checks that
// no goroutine outlived it. Every exit path closes the cluster.
func runCluster(w Workload, seed int64, rec *Recorder, setups int, warm, w1, w16 time.Duration, rounds int) (*clusterRun, error) {
	baseline := runtime.NumGoroutine()
	run := &clusterRun{}
	var wrap func(int, transport.Transport, map[string]int) transport.Transport
	if rec != nil {
		wrap = rec.Wrap
	}
	var c *Cluster
	for i := 0; i < setups; i++ {
		var err error
		if c, err = BuildCluster(w, seed, wrap); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		run.setups = append(run.setups, c.SetupTime)
		if i < setups-1 {
			c.Close()
		}
	}
	defer c.Close()
	run.bootstraps, run.joins = c.BootstrapTimes, c.JoinTimes

	d := NewDriver(c, w, seed, rec)
	fail := func(err error) (*clusterRun, error) {
		return nil, fmt.Errorf("%w (%s)", err, d.FailureDetail())
	}
	for _, window := range []int{windowUnloaded, windowLoaded} {
		if _, err := d.Phase(window, warm/2); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	run.measured = d.next
	base, baseCoalesced := c.sumStats(), c.CoalescedMsgs()
	for r := 0; r < rounds; r++ {
		p1, err := d.Phase(windowUnloaded, w1)
		if err != nil {
			return fail(fmt.Errorf("round %d w1: %w", r, err))
		}
		run.w1 = append(run.w1, p1)
		if w16 <= 0 {
			continue
		}
		p16, err := d.Phase(windowLoaded, w16)
		if err != nil {
			return fail(fmt.Errorf("round %d w16: %w", r, err))
		}
		run.w16 = append(run.w16, p16)
	}
	if err := c.VerifyTree(); err != nil {
		return fail(fmt.Errorf("after the run: %w", err))
	}
	run.stats = c.sumStats().Delta(base)
	run.coalesced = c.CoalescedMsgs() - baseCoalesced
	c.Close()

	run.leaked = leakedGoroutines(baseline)
	run.attempted = d.attempted
	run.failed = d.Failed() + int64(run.stats.Transport.InboxSheds)
	run.detail = fmt.Sprintf("%s inbox_sheds=%d leaked_goroutines=%d",
		d.FailureDetail(), run.stats.Transport.InboxSheds, run.leaked)
	return run, nil
}

// sumStats merges every node's counters.
func (c *Cluster) sumStats() node.Stats {
	var total node.Stats
	for _, n := range c.Nodes {
		total.Merge(n.Stats())
	}
	return total
}

// leakedGoroutines waits (bounded) for the goroutine count to return to
// baseline and reports how many are left over.
func leakedGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-baseline)
}

// Run executes one benchmark run and returns its result line. An error means
// the run could not be completed (set-up failed, a publish was lost, the tree
// changed); a completed run with correctness failures returns Correct=false.
func Run(o Options) (Result, error) {
	w, ok := WorkloadByName(o.Workload)
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return Result{}, fmt.Errorf("seconds must be positive, got %v", o.Seconds)
	}
	if o.Setups <= 0 {
		o.Setups = 5
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	total := time.Duration(o.Seconds * float64(time.Second))
	warm := min(total/20, time.Second)
	ballast := make([]byte, heapBallast)
	defer runtime.KeepAlive(ballast)

	if !o.Trace {
		phase := total / (2 * Rounds)
		run, err := runCluster(w, o.Seed, nil, o.Setups, warm, phase, phase, Rounds)
		if err != nil {
			return Result{}, err
		}
		fmt.Fprintf(o.Log, "%s seed=%d: %d rounds of w1 %v + w16 %v\n", w.Name, o.Seed, Rounds, phase, phase)
		for r := range run.w1 {
			p1, p16 := run.w1[r], run.w16[r]
			fmt.Fprintf(o.Log, "  round %d: w1 %d samples p50 %.1f us p99 %.1f us | w16 %d publishes %.0f /s %.2f cpu-us/delivery\n",
				r, p1.Completed, quantileUs(0.5)(p1), quantileUs(0.99)(p1),
				p16.Completed, float64(p16.Completed)/p16.Elapsed.Seconds(), float64(p16.CPU)/1e3/float64(p16.Deliveries))
		}
		return report(o.Log, EndToEnd, endToEndValues(run), run.attempted, run.failed, run.leaked, run.detail)
	}

	phase := total * 2 / 5 / (2 * Rounds)
	plain, err := runCluster(w, o.Seed, nil, 1, warm, phase, phase, Rounds)
	if err != nil {
		return Result{}, err
	}
	rec := NewRecorder()
	traced, err := runCluster(w, o.Seed, rec, 1, warm, total/5, 0, 1)
	if err != nil {
		return Result{}, fmt.Errorf("traced run: %w", err)
	}
	values := countedValues(plain)
	if err := tracedValues(values, rec, traced, plain); err != nil {
		return Result{}, err
	}
	if o.TraceOut != "" {
		if err := writeTrace(o.TraceOut, rec, traced.measured); err != nil {
			return Result{}, err
		}
	}
	if err := layerValues(values, total*2/5); err != nil {
		return Result{}, fmt.Errorf("layer pass: %w", err)
	}
	leaked := plain.leaked + traced.leaked
	values["runtime.leaked_goroutines"] = float64(leaked)
	fmt.Fprintf(o.Log, "%s seed=%d traced: %d rounds of w1 %v + w16 %v, traced w1 %v (%d publishes analysed)\n",
		w.Name, o.Seed, Rounds, phase, phase, total/5, traced.w1[0].Completed)
	return report(o.Log, PerLayer, values, plain.attempted+traced.attempted, plain.failed+traced.failed,
		leaked, plain.detail+" | traced: "+traced.detail)
}

func writeTrace(path string, rec *Recorder, from uint64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}()
	return rec.WriteNDJSON(f, from, from+traceFileLimit)
}
