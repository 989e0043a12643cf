package main

import (
	"flag"
	"math"
	"testing"

	"repro"
)

// TestBuildConfig checks the flag translation: served configs always
// pin the split request discipline (the bit-compat precondition of the
// golden pin) and reject unknown enum values.
func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(32, "torus", 2000, 4, 0.8, "two-choices", 6, 2,
		0, "escalate", "tiles", "replicas", 0.01, "crash", 0.001, 0.001, "none", "uniform", 0, 2017)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Streams != repro.StreamsSplit {
		t.Fatal("served config must pin split streams")
	}
	if cfg.Strategy.Kind != repro.TwoChoices || cfg.Strategy.Radius != 6 {
		t.Fatalf("strategy %+v", cfg.Strategy)
	}
	if cfg.Churn != repro.ChurnReplicas || cfg.Faults != repro.FaultsCrash {
		t.Fatalf("dynamics %v/%v", cfg.Churn, cfg.Faults)
	}
	if _, err := repro.Compile(cfg); err != nil {
		t.Fatalf("config does not compile: %v", err)
	}

	for name, f := range map[string]func() error{
		"strategy": func() error {
			_, err := buildConfig(32, "torus", 100, 4, 0, "best-effort", 6, 2, 0, "resample", "none", "none", 0, "none", 0, 0, "none", "uniform", 0, 1)
			return err
		},
		"topology": func() error {
			_, err := buildConfig(32, "ring", 100, 4, 0, "nearest", 6, 2, 0, "resample", "none", "none", 0, "none", 0, 0, "none", "uniform", 0, 1)
			return err
		},
		"churn": func() error {
			_, err := buildConfig(32, "torus", 100, 4, 0, "nearest", 6, 2, 0, "resample", "none", "sometimes", 0, "none", 0, 0, "none", "uniform", 0, 1)
			return err
		},
		// An infinite arrival rate parses as a float flag but must fail
		// when the world compiles: its event credit would never drain.
		"arrival-rate inf": func() error {
			cfg, err := buildConfig(32, "torus", 100, 4, 0, "nearest", 6, 2, 0, "escalate", "none", "none", 0, "none", 0, 0, "arrival", "two-tier", arrivalRateFlag(t, "inf"), 1)
			if err != nil {
				return err
			}
			_, err = repro.Compile(cfg)
			return err
		},
	} {
		if f() == nil {
			t.Errorf("%s: bad value accepted", name)
		}
	}
}

// arrivalRateFlag parses value the way the daemon's -arrival-rate flag
// does.
func arrivalRateFlag(t *testing.T, value string) float64 {
	t.Helper()
	fs := flag.NewFlagSet("cachesimd", flag.ContinueOnError)
	rate := fs.Float64("arrival-rate", 0, "")
	if err := fs.Parse([]string{"-arrival-rate", value}); err != nil {
		t.Fatal(err)
	}
	return *rate
}

// TestBuildConfigGamma checks that every non-zero -gamma selects Zipf,
// so a negative or non-finite exponent fails when the world compiles
// instead of silently meaning uniform popularity.
func TestBuildConfigGamma(t *testing.T) {
	for _, tc := range []struct {
		gamma float64
		zipf  bool
		ok    bool
	}{
		{0, false, true},
		{0.8, true, true},
		{-1, true, false},
		{math.NaN(), true, false},
		{math.Inf(-1), true, false},
	} {
		cfg, err := buildConfig(32, "torus", 100, 4, tc.gamma, "nearest", 6, 2, 0, "resample", "none", "none", 0, "none", 0, 0, "none", "uniform", 0, 1)
		if err != nil {
			t.Fatalf("gamma %v: %v", tc.gamma, err)
		}
		if (cfg.Popularity.Kind == repro.PopZipf) != tc.zipf {
			t.Errorf("gamma %v: popularity %+v, want zipf=%v", tc.gamma, cfg.Popularity, tc.zipf)
		}
		if _, err := repro.Compile(cfg); (err == nil) != tc.ok {
			t.Errorf("gamma %v: Compile = %v, want ok=%v", tc.gamma, err, tc.ok)
		}
	}
}

// TestNewHTTPServerHardened pins the daemon's connection deadlines: a
// peer that stalls mid-header, trickles a body or never reads its
// response must be cut off, not hold a connection forever.
func TestNewHTTPServerHardened(t *testing.T) {
	srv := newHTTPServer(":9999", nil)
	if srv.Addr != ":9999" {
		t.Fatalf("addr %q", srv.Addr)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("missing connection deadlines: %+v", srv)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Fatalf("header deadline %v exceeds read deadline %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}
