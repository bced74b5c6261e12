package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/serve"
)

// jobSpec is a fleet spec as a user writes it: only the fields the README
// documents, so the benchmark never names an executor knob.
type jobSpec struct {
	Devices  int         `json:"devices"`
	Seed     uint64      `json:"seed"`
	Models   []string    `json:"models"`
	Runtimes []string    `json:"runtimes"`
	Powers   []powerSpec `json:"powers"`
}

type powerSpec struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	CapFarads float64 `json:"cap_farads,omitempty"`
	Watts     float64 `json:"watts,omitempty"`
}

// fleetSpec decodes the user JSON into the program's spec type the way the
// server does, rejecting unknown fields.
func (s jobSpec) fleetSpec() (fleet.Spec, error) {
	buf, err := json.Marshal(s)
	if err != nil {
		return fleet.Spec{}, err
	}
	var fs fleet.Spec
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	return fs, dec.Decode(&fs)
}

// jobDoc is the part of GET /jobs/{id} the client reads.
type jobDoc struct {
	ID      string          `json:"id"`
	Status  string          `json:"status"`
	Deduped bool            `json:"deduped"`
	Done    int             `json:"done"`
	Total   int             `json:"total"`
	Error   string          `json:"error"`
	Agg     json.RawMessage `json:"aggregates"`
}

// client is the benchmark's single closed-loop client of one server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{base: "http://" + addr, hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{}}}
}

// close drops the client's idle connections before its server stops.
func (c *client) close() { c.hc.CloseIdleConnections() }

// pollEvery is the client's GET interval while a job runs. It bounds the
// latency a job's reported time can overstate, at a small cost in server
// CPU for each poll.
const pollEvery = 5 * time.Millisecond

// jobTimeout bounds one job; a job still running then counts as failed.
const jobTimeout = 150 * time.Second

// run submits spec, polls until the job is terminal, and returns the
// job's final document with its POST round trip and its latency.
func (c *client) run(spec jobSpec) (doc jobDoc, submit, latency time.Duration, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return doc, 0, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return doc, 0, 0, fmt.Errorf("POST /jobs: %w", err)
	}
	err = decodeResp(resp, http.StatusAccepted, &doc)
	submit = time.Since(start)
	if err != nil {
		return doc, submit, 0, fmt.Errorf("POST /jobs: %w", err)
	}
	if doc.Deduped {
		return doc, submit, 0, fmt.Errorf("job %s was answered by dedup", doc.ID)
	}
	for doc.Status == "queued" || doc.Status == "running" {
		if time.Since(start) > jobTimeout {
			return doc, submit, 0, fmt.Errorf("job %s still %s after %s", doc.ID, doc.Status, jobTimeout)
		}
		time.Sleep(pollEvery)
		resp, err := c.hc.Get(c.base + "/jobs/" + doc.ID)
		if err != nil {
			return doc, submit, 0, fmt.Errorf("GET job: %w", err)
		}
		if err := decodeResp(resp, http.StatusOK, &doc); err != nil {
			return doc, submit, 0, fmt.Errorf("GET job: %w", err)
		}
	}
	return doc, submit, time.Since(start), nil
}

// busySeconds reads the server's cumulative campaign time from /stats.
func (c *client) busySeconds() (float64, error) {
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return 0, err
	}
	var doc struct {
		Stats serve.Stats `json:"stats"`
	}
	if err := decodeResp(resp, http.StatusOK, &doc); err != nil {
		return 0, fmt.Errorf("GET /stats: %w", err)
	}
	return doc.Stats.BusySeconds, nil
}

func decodeResp(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(buf)))
	}
	return json.Unmarshal(buf, v)
}

// checkJob applies the correctness gate to a finished job and returns its
// summary, and the summary's compact JSON for the digest. The digest is
// taken from the wire form, which the summary type does not round-trip
// (open histogram bounds are null).
func checkJob(spec jobSpec, doc jobDoc) (*fleet.Summary, []byte, error) {
	if doc.Status != "done" {
		return nil, nil, fmt.Errorf("job %s ended %s: %s", doc.ID, doc.Status, doc.Error)
	}
	a := &fleet.Summary{}
	if err := json.Unmarshal(doc.Agg, a); err != nil {
		return nil, nil, fmt.Errorf("job %s aggregates: %w", doc.ID, err)
	}
	var dig bytes.Buffer
	if err := json.Compact(&dig, doc.Agg); err != nil {
		return nil, nil, err
	}
	switch {
	case doc.Done != spec.Devices || doc.Total != spec.Devices || a.Devices != int64(spec.Devices):
		return nil, nil, fmt.Errorf("job %s: done %d, total %d, devices %d; want %d of each",
			doc.ID, doc.Done, doc.Total, a.Devices, spec.Devices)
	case a.Completed+a.DNC != a.Devices:
		return nil, nil, fmt.Errorf("job %s: completed %d + dnc %d != devices %d", doc.ID, a.Completed, a.DNC, a.Devices)
	}
	return a, dig.Bytes(), nil
}

// timeJob runs one served job and fills the client-side record: latency,
// submit round trip, and the server's busy-time delta for the campaign.
func timeJob(c *client, spec jobSpec) (job, error) {
	busy0, err := c.busySeconds()
	if err != nil {
		return job{}, err
	}
	doc, submit, lat, err := c.run(spec)
	if err != nil {
		return job{}, err
	}
	sum, dig, err := checkJob(spec, doc)
	if err != nil {
		return job{}, err
	}
	busy1, err := c.busySeconds()
	if err != nil {
		return job{}, err
	}
	return job{
		latency: lat.Seconds(), submit: submit.Seconds(), campaign: busy1 - busy0,
		devices: sum.Devices, boundaries: sum.Reboots, digest: dig,
	}, nil
}

// child is a benchmark process started by the benchmark: a serve.Server,
// so that every cold job starts from a process in which nothing is
// prepared, compiled or cached and the server's memory is measured apart
// from the client's, or one fuzz campaign, as cmd/fuzz runs one per
// process. A child writes "ready <payload>" once it is set up, may write
// result lines after it, and exits when its stdin closes.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
}

// startChild starts the benchmark binary in a child mode and returns once
// the child is ready, with the ready line's payload and the time that took.
func startChild(args ...string) (*child, string, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, "", 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", 0, err
	}
	c := &child{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}
	line, err := c.stdout.ReadString('\n')
	payload, ok := strings.CutPrefix(strings.TrimSpace(line), "ready")
	if err != nil || !ok {
		c.stop()
		return nil, "", 0, fmt.Errorf("%s child did not start (%q, %v)", args[0], line, err)
	}
	return c, strings.TrimSpace(payload), time.Since(start), nil
}

// startServer starts a child server whose model cache prepares models with
// modelSeed at quick budgets and is warmed with the named models, and
// returns it with its address.
func startServer(modelSeed uint64, warm []string) (*child, string, time.Duration, error) {
	return startChild("child-serve", strconv.FormatUint(modelSeed, 10), strings.Join(warm, ","))
}

// finish reads the child's peak resident set (VmHWM) in MB, then stops it.
func (c *child) finish() (float64, error) {
	rss, err := vmHWM(strconv.Itoa(c.cmd.Process.Pid))
	if serr := c.stop(); err == nil {
		err = serr
	}
	return rss, err
}

// stop closes the child's stdin, which makes it finish and exit, and waits
// for it; a child that has not exited after 20 s is killed.
func (c *child) stop() error {
	c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return errors.New("child did not exit; killed")
	}
}

// vmHWM reads a process's peak resident set size in MB from /proc.
func vmHWM(pid string) (float64, error) {
	buf, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// serverWorkers is the simulation fan-out every server gets: one worker
// per CPU the process may use.
func serverWorkers() int { return runtime.NumCPU() }

// childServe is the child side of startServer: args are the model seed and
// a comma-separated list of models to prepare before accepting requests.
// It serves on a loopback port until its stdin closes.
func childServe(args []string) error {
	if len(args) != 2 {
		return errors.New("child-serve wants <model-seed> <warm-models>")
	}
	seed, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return err
	}
	models := serve.NewModelCache(harness.PrepareOptions{Seed: seed, Quick: true})
	for _, name := range strings.Split(args[1], ",") {
		if name == "" {
			continue
		}
		if _, err := models.Model(name); err != nil {
			return err
		}
	}
	return serveUntil(models, os.Stdin, func(addr string) { fmt.Printf("ready %s\n", addr) })
}

// serveUntil runs a serve.Server over models on a loopback port, calls
// ready with its address, and drains it once stop reaches EOF.
func serveUntil(models serve.ModelSource, stop io.Reader, ready func(addr string)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := serve.New(models, serve.Options{Workers: serverWorkers()})
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	ready(ln.Addr().String())
	_, _ = io.Copy(io.Discard, stop) // returns when the parent closes the pipe
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return srv.Shutdown(ctx)
}

// runChild dispatches the child-process modes.
func runChild(mode string, args []string) int {
	var err error
	switch mode {
	case "child-serve":
		err = childServe(args)
	case "child-replay":
		err = childReplay(os.Stdin, os.Stdout)
	case "child-fuzz":
		err = childFuzz(args)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", mode+":", err)
		return 1
	}
	return 0
}
