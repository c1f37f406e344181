package provision

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// The scenario-compile path surfaces Config.Validate errors directly to
// spec authors, so the messages must name the offending field and value.
func TestValidateErrorMessages(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{QoS: QoS{Ts: 0}, NominalTr: 1, MaxVMs: 1}, "QoS.Ts"},
		{Config{QoS: QoS{Ts: 1}, NominalTr: 0, MaxVMs: 1}, "NominalTr"},
		{Config{QoS: QoS{Ts: 1}, NominalTr: 1, MaxVMs: 0}, "MaxVMs"},
		{Config{QoS: QoS{Ts: 0.5}, NominalTr: 1, MaxVMs: 4}, "k = ⌊Ts/Tr⌋"},
		{Config{QoS: QoS{Ts: math.NaN()}, NominalTr: 1, MaxVMs: 1}, "QoS.Ts"},
		{Config{QoS: QoS{Ts: 1, MaxRejection: 2}, NominalTr: 1, MaxVMs: 1}, "QoS.MaxRejection"},
		{Config{QoS: QoS{Ts: 1, MaxRejection: math.NaN()}, NominalTr: 1, MaxVMs: 1}, "QoS.MaxRejection"},
		{Config{QoS: QoS{Ts: 1, RejectionTol: -1}, NominalTr: 1, MaxVMs: 1}, "QoS.RejectionTol"},
		{Config{QoS: QoS{Ts: 1, RejectionTol: math.NaN()}, NominalTr: 1, MaxVMs: 1}, "QoS.RejectionTol"},
		{Config{QoS: QoS{Ts: 1, MinUtilization: 2}, NominalTr: 1, MaxVMs: 1}, "QoS.MinUtilization"},
		{Config{QoS: QoS{Ts: 1, MinUtilization: -1}, NominalTr: 1, MaxVMs: 1}, "QoS.MinUtilization"},
		{Config{QoS: QoS{Ts: 1, MinUtilization: math.NaN()}, NominalTr: 1, MaxVMs: 1}, "QoS.MinUtilization"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("config %+v validated, want error mentioning %q", c.cfg, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not mention %q", err, c.want)
		}
	}
}

// A Ts exactly equal to NominalTr yields k = 1 and must be accepted.
func TestValidateQueueSizeBoundary(t *testing.T) {
	cfg := Config{QoS: QoS{Ts: 1}, NominalTr: 1, MaxVMs: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("k = 1 config rejected: %v", err)
	}
}

// Config round-trips through its JSON spec schema with every field intact.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := Config{
		QoS:       QoS{Ts: 0.25, MaxRejection: 0.01, RejectionTol: 1e-3, MinUtilization: 0.8},
		NominalTr: 0.1,
		MaxVMs:    20,
		BootDelay: 30,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Fatalf("round trip changed config:\n%+v\n%+v", back, cfg)
	}
}
