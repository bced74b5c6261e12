package energy

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSystemSpecValidate(t *testing.T) {
	valid := []SystemSpec{
		{Kind: "cont"},
		{Kind: "const", CapFarads: 100e-6},
		{Kind: "stoch", CapFarads: 100e-6, Sigma: 0.7},
		{Kind: "solar", CapFarads: 1e-3, Watts: 5e-3},
		{Kind: "trace", CapFarads: 100e-6, Trace: []float64{1e-3, 2e-3}},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	invalid := []SystemSpec{
		{},
		{Kind: "fusion"},
		{Kind: "const"},
		{Kind: "const", CapFarads: -1},
		{Kind: "stoch", CapFarads: 100e-6, Watts: -1},
		{Kind: "trace", CapFarads: 100e-6},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v passed validation", s)
		}
	}
}

// TestSystemSpecRejectsNonFinite pins that NaN and ±Inf never pass
// validation in any parameter a harvester kind reads: NaN slips past the
// ordered comparisons, so each field needs an explicit check.
func TestSystemSpecRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		spec SystemSpec
		want string
	}{
		{"const nan cap", SystemSpec{Kind: "const", CapFarads: nan}, "non-finite capacitor"},
		{"const +inf cap", SystemSpec{Kind: "const", CapFarads: inf}, "non-finite capacitor"},
		{"solar -inf cap", SystemSpec{Kind: "solar", CapFarads: -inf}, "non-finite capacitor"},
		{"trace nan cap", SystemSpec{Kind: "trace", CapFarads: nan, Trace: []float64{1e-3}}, "non-finite capacitor"},
		{"const +inf watts", SystemSpec{Kind: "const", CapFarads: 100e-6, Watts: inf}, "non-finite harvest power"},
		{"solar nan watts", SystemSpec{Kind: "solar", CapFarads: 100e-6, Watts: nan}, "non-finite harvest power"},
		{"stoch -inf watts", SystemSpec{Kind: "stoch", CapFarads: 100e-6, Watts: -inf}, "non-finite harvest power"},
		{"stoch nan sigma", SystemSpec{Kind: "stoch", CapFarads: 100e-6, Sigma: nan}, "non-finite sigma"},
		{"stoch +inf sigma", SystemSpec{Kind: "stoch", CapFarads: 100e-6, Sigma: inf}, "non-finite sigma"},
		{"trace nan sample", SystemSpec{Kind: "trace", CapFarads: 100e-6, Trace: []float64{1e-3, nan}}, "trace sample 1 is non-finite"},
		{"trace +inf sample", SystemSpec{Kind: "trace", CapFarads: 100e-6, Trace: []float64{inf}}, "trace sample 0 is non-finite"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
		if _, err := tc.spec.New(1); err == nil {
			t.Errorf("%s: New accepted the spec", tc.name)
		}
	}
}

// TestSystemSpecRejectsHugeCapacitor pins the picojoule budget bound: a
// capacitor whose usable charge overflows the integer accounting is
// rejected, while the paper's three sizes are accepted.
func TestSystemSpecRejectsHugeCapacitor(t *testing.T) {
	for _, farads := range []float64{1e300, 1e6, 7e4} {
		s := SystemSpec{Kind: "const", CapFarads: farads}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "pJ limit") {
			t.Errorf("%v F: Validate() = %v, want a pJ limit error", farads, err)
		}
		if _, err := s.New(1); err == nil {
			t.Errorf("%v F: New accepted the spec", farads)
		}
	}
	for _, farads := range []float64{100e-6, 1e-3, 50e-3, 6e4} {
		for _, kind := range []string{"const", "stoch", "solar"} {
			if err := (SystemSpec{Kind: kind, CapFarads: farads}).Validate(); err != nil {
				t.Errorf("%s %v F: %v", kind, farads, err)
			}
		}
	}
}

// TestSystemSpecBoundsHarvestParameters pins the sigma and watts bounds:
// a spec outside them is rejected (with sigma 1e6 a stochastic harvester
// draws zero power, and a recharge at zero power panics), and at the
// edges of the accepted range every draw is positive and finite.
func TestSystemSpecBoundsHarvestParameters(t *testing.T) {
	for _, s := range []SystemSpec{
		{Kind: "stoch", CapFarads: 100e-6, Sigma: 1e6},
		{Kind: "stoch", CapFarads: 100e-6, Sigma: maxSigma * 1.01},
		{Kind: "stoch", CapFarads: 100e-6, Sigma: -0.1},
		{Kind: "const", CapFarads: 100e-6, Watts: maxWatts * 1.01},
		{Kind: "solar", CapFarads: 100e-6, Watts: 1e300},
		{Kind: "const", CapFarads: 100e-6, Watts: minWatts / 2},
		{Kind: "stoch", CapFarads: 100e-6, Watts: 5e-324},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v passed validation", s)
		}
	}
	for _, s := range []SystemSpec{
		{Kind: "stoch", CapFarads: 100e-6, Watts: minWatts, Sigma: maxSigma},
		{Kind: "stoch", CapFarads: 100e-6, Watts: maxWatts, Sigma: maxSigma},
		{Kind: "solar", CapFarads: 100e-6, Watts: minWatts},
		{Kind: "const", CapFarads: 100e-6, Watts: maxWatts},
	} {
		sys, err := s.New(7)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		h := sys.(*Intermittent).Harvester
		for i := 0; i < 100000; i++ {
			if w := h.PowerW(); !(w > 0) || math.IsInf(w, 0) {
				t.Fatalf("%+v: draw %d is %v W", s, i, w)
			}
		}
	}
}

// TestSystemSpecDeterministicPerSeed pins the fleet contract: equal
// (spec, seed) pairs yield systems with identical consume/recharge
// behavior, and stochastic kinds diverge across seeds.
func TestSystemSpecDeterministicPerSeed(t *testing.T) {
	spec := SystemSpec{Kind: "stoch", CapFarads: 100e-6}
	drain := func(sys System) []float64 {
		var deads []float64
		for i := 0; i < 5; i++ {
			for sys.Consume(100) {
			}
			deads = append(deads, sys.Recharge())
		}
		return deads
	}
	a, err := spec.New(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.New(42)
	if err != nil {
		t.Fatal(err)
	}
	da, db := drain(a), drain(b)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same (spec, seed) diverged at recharge %d: %v vs %v", i, da[i], db[i])
		}
	}
	c, err := spec.New(43)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i, d := range drain(c) {
		if d != da[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical stochastic recharge times")
	}
}

// TestSystemSpecKinds checks each kind constructs the documented system
// class with the documented defaults.
func TestSystemSpecKinds(t *testing.T) {
	if sys, err := (SystemSpec{Kind: "cont"}).New(1); err != nil {
		t.Fatal(err)
	} else if _, ok := sys.(Continuous); !ok {
		t.Fatalf("cont built %T", sys)
	}
	sys, err := SystemSpec{Kind: "const", CapFarads: 100e-6}.New(1)
	if err != nil {
		t.Fatal(err)
	}
	im, ok := sys.(*Intermittent)
	if !ok {
		t.Fatalf("const built %T", sys)
	}
	// Zero watts defaults to the paper's RF harvester power (observed
	// harvest is averaged over recharges, so drain once first).
	for im.Consume(100) {
	}
	im.Recharge()
	if got := im.ObservedHarvestW(); got != DefaultRFWatts {
		t.Fatalf("default const harvest = %v, want %v", got, DefaultRFWatts)
	}
	if sys.BufferEnergy() <= 0 {
		t.Fatal("const system has no usable buffer")
	}
	if _, err := (SystemSpec{Kind: "trace", CapFarads: 100e-6, Trace: []float64{1e-3}}).New(1); err != nil {
		t.Fatal(err)
	}
}

// TestSystemSpecJSONRoundTrip: the spec is the wire format of the serving
// API, so it must survive JSON unchanged.
func TestSystemSpecJSONRoundTrip(t *testing.T) {
	in := SystemSpec{Kind: "stoch", CapFarads: 100e-6, Watts: 2e-3, Sigma: 0.5}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SystemSpec
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed spec: %+v -> %+v", in, out)
	}
}
