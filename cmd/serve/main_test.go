package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/fleet"
)

// TestServeSIGTERMGracefulDrain boots the real server binary path
// (run()), submits a campaign over HTTP, delivers a real SIGTERM to the
// process, and requires a clean exit with the in-flight job finished —
// the end-to-end graceful-drain contract.
func TestServeSIGTERMGracefulDrain(t *testing.T) {
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(),
			[]string{"-addr", "127.0.0.1:0", "-quick", "-drain", "60s"},
			io.Discard, func(a string) { addrCh <- a })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never came up")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	spec := fleet.Spec{
		Devices:  2000,
		Seed:     1,
		Models:   []string{"tiny"},
		Runtimes: []string{"base", "sonic", "tails"},
		Powers: []fleet.PowerClass{
			{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
		},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, job.ID)
	}

	// Real signal, real handler: the run() loop catches it via
	// signal.NotifyContext and drains.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run() exited with %v after SIGTERM, want clean drain", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("server did not drain within 90s of SIGTERM")
	}

	// The listener is closed after a drain.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// TestServeSurvivesBadPowerSpec: a power class whose stochastic harvester
// can draw zero power (sigma 1e6) would panic a campaign worker. It is
// refused at submission, and the same server goes on to run the next job.
func TestServeSurvivesBadPowerSpec(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quick"},
			io.Discard, func(a string) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never came up")
	}
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run() = %v on shutdown", err)
		}
	}()

	post := func(spec fleet.Spec) (int, string) {
		t.Helper()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, doc.ID + doc.Error
	}
	spec := func(p energy.SystemSpec) fleet.Spec {
		return fleet.Spec{
			Devices: 8, Seed: 1, Models: []string{"tiny"}, Runtimes: []string{"sonic", "tails"},
			Powers: []fleet.PowerClass{{Name: "p", SystemSpec: p}},
		}
	}

	code, msg := post(spec(energy.SystemSpec{Kind: "stoch", CapFarads: 100e-6, Sigma: 1e6}))
	if code != http.StatusBadRequest || !strings.Contains(msg, "sigma") {
		t.Fatalf("sigma 1e6 spec: status %d, %q; want 400 naming sigma", code, msg)
	}
	code, id := post(spec(energy.SystemSpec{Kind: "stoch", CapFarads: 100e-6, Sigma: 4}))
	if code != http.StatusAccepted {
		t.Fatalf("next job: status %d, %q", code, id)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job struct {
			Status string `json:"status"`
			Done   int    `json:"done"`
			Error  string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == "done" {
			if job.Done != 8 {
				t.Fatalf("next job finished %d/8 devices", job.Done)
			}
			return
		}
		if job.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("next job: status %q, error %q", job.Status, job.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeRunBadFlags: flag errors surface instead of serving.
func TestServeRunBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-no-such-flag"}, io.Discard, nil)
	if err == nil {
		t.Fatal("bad flags did not error")
	}
}

// TestServeRunCtxCancel: cancelling the parent context also drains —
// the programmatic equivalent of SIGTERM.
func TestServeRunCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quick"},
			io.Discard, func(a string) { addrCh <- a })
	}()
	select {
	case <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("server never came up")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run() = %v on context cancel", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit on context cancel")
	}
}
