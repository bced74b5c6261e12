package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzSpec feeds fuzzer-chosen campaign specs through the path a POST /jobs
// body takes: JSON decoded with unknown fields disallowed (as cmd/serve
// decodes it), then Validate, NewCampaign over the tiny-model registry and
// a one-device Run under a deadline. The property is that every input is
// either rejected with an error or yields a well-formed Summary — never a
// panic, a device panic recovered into a job error, or a hang. The seed
// corpus runs as part of the ordinary test suite;
// `go test ./internal/fleet -run '^$' -fuzz FuzzSpec` explores beyond it.
func FuzzSpec(f *testing.F) {
	valid := func(runtime, power string) string {
		return `{"devices": 3, "seed": 7, "models": ["tiny"], "runtimes": ["` + runtime +
			`"], "powers": [` + power + `]}`
	}
	rf := `{"name": "rf", "kind": "const", "cap_farads": 1e-4}`
	for _, body := range []string{
		valid("sonic", rf),
		valid("tails", `{"name": "solar", "kind": "solar", "cap_farads": 1e-4, "watts": 5e-3}`),
		valid("tile-32", `{"name": "stoch", "kind": "stoch", "cap_farads": 1e-4}`),
		valid("base", `{"name": "cont", "kind": "cont"}`),
		valid("ckpt-8", `{"name": "trace", "kind": "trace", "cap_farads": 1e-4, "trace": [1e-3, 2e-3]}`),
		// Power-class probes: each must be rejected, not simulated.
		valid("sonic", `{"name": "s", "kind": "stoch", "cap_farads": 1e-4, "sigma": 1e6}`),
		valid("sonic", `{"name": "nan", "kind": "const", "cap_farads": NaN}`),
		valid("sonic", `{"name": "huge", "kind": "const", "cap_farads": 1e300}`),
		valid("sonic", `{"name": "inf", "kind": "const", "cap_farads": 1e-4, "watts": +Inf}`),
		valid("sonic", `{"name": "inf", "kind": "const", "cap_farads": 1e-4, "watts": 1e999}`),
		// Runtime names the simulator cannot run, or that respell one.
		valid("ckpt-1", rf),
		valid("tile-08", rf),
		// The retired executor knob is an unknown field.
		strings.Replace(valid("sonic", rf), "{", `{"interpreted": true, `, 1),
		`{"devices": 0, "models": ["tiny"], "runtimes": ["sonic"], "powers": [` + rf + `]}`,
		`{"devices": 1, "models": ["tiny"], "runtimes": ["sonic"], "powers": [` + rf + `], "shards": -1}`,
		`{}`,
		`null`,
	} {
		f.Add([]byte(body))
	}

	models := testModels(1)
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if spec.Devices > 1 {
			spec.Devices = 1
		}
		if err := spec.Validate(models); err != nil {
			return
		}
		c, err := NewCampaign(spec, models)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		type outcome struct {
			r   *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			r, err := c.Run(ctx, 1)
			done <- outcome{r, err}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("campaign ignored its deadline: %s", body)
		}
		if out.err != nil {
			if strings.Contains(out.err.Error(), "panicked") {
				t.Fatalf("validated spec panicked a device: %v\n%s", out.err, body)
			}
			return
		}
		checkSummary(t, out.r, spec.Devices, body)
	})
}

// checkSummary asserts a finished campaign's result is well formed: every
// device accounted for exactly once, and every figure finite and
// non-negative (a non-finite one would also fail to encode as JSON, which
// is what serve streams).
func checkSummary(t *testing.T, r *Result, devices int, body []byte) {
	t.Helper()
	s := r.Agg.Summary()
	if r.Done != devices || s.Devices != int64(devices) || s.Completed+s.DNC != s.Devices {
		t.Fatalf("device accounting off: done=%d summary=%+v\n%s", r.Done, s, body)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("summary does not encode: %v\n%s", err, body)
	}
	for _, v := range []float64{s.EnergyJ, s.WastedJ, float64(s.Reboots),
		s.IMpJ.Min, s.IMpJ.Max, s.FirstInferS.Min, s.FirstInferS.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("summary figure %v out of domain: %+v\n%s", v, s, body)
		}
	}
	if s.Completed > 0 && !(s.IMpJ.P50 > 0) {
		t.Fatalf("completed device reports IMpJ %v\n%s", s.IMpJ.P50, body)
	}
}
