package dist

import (
	"math"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgHello, Worker: "w0", PID: 1234},
		{Type: MsgJob, Job: &Job{Preset: "smoke", Dataset: "cifar10", Scenario: "chen",
			Rates: []float64{0, 0.02, 0.1}, Runs: 6, Seed: 42, Batch: 32}},
		{Type: MsgLeaseReq, Worker: "w0"},
		{Type: MsgLease, Lease: &Lease{ID: 3, RateIndex: 1, Rate: 0.02, Seed: 7961, Start: 2, End: 4, TTLMs: 10_000}},
		{Type: MsgNoLease, RetryMs: 100},
		{Type: MsgHeartbeat, Worker: "w0", LeaseID: 3},
		{Type: MsgResult, Worker: "w0", LeaseID: 3, Accs: []float64{0.5, 0.75}},
		{Type: MsgResult, Worker: "w0", LeaseID: 3, Err: "boom"},
		{Type: MsgDone},
		{Type: MsgError, Err: "expected hello"},
	}
	for _, m := range msgs {
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode %s: %v", m.Type, err)
		}
		got, err := DecodeMessage(frame[4:])
		if err != nil {
			t.Fatalf("decode %s: %v", m.Type, err)
		}
		if got.Type != m.Type || got.Worker != m.Worker || got.LeaseID != m.LeaseID || got.Err != m.Err {
			t.Fatalf("round trip mangled %s: %+v -> %+v", m.Type, m, got)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		m    Message
		want string
	}{
		{"unknown type", Message{Type: "gossip"}, "unknown message type"},
		{"hello without id", Message{Type: MsgHello}, "without worker id"},
		{"job without job", Message{Type: MsgJob}, "without job"},
		{"job with bad rate", Message{Type: MsgJob, Job: &Job{Rates: []float64{1.5}, Runs: 1}}, "outside [0, 1]"},
		{"job with zero runs", Message{Type: MsgJob, Job: &Job{Rates: []float64{0.1}}}, "runs"},
		{"lease without lease", Message{Type: MsgLease}, "without lease"},
		{"lease empty range", Message{Type: MsgLease, Lease: &Lease{ID: 1, Rate: 0.1, Start: 3, End: 3, TTLMs: 1}}, "run range"},
		{"lease no ttl", Message{Type: MsgLease, Lease: &Lease{ID: 1, Rate: 0.1, Start: 0, End: 2}}, "ttl"},
		{"heartbeat without lease", Message{Type: MsgHeartbeat}, "without lease id"},
		{"result without payload", Message{Type: MsgResult, LeaseID: 1}, "neither"},
		{"result with wild acc", Message{Type: MsgResult, LeaseID: 1, Accs: []float64{2}}, "not an accuracy"},
		{"result with NaN", Message{Type: MsgResult, LeaseID: 1, Accs: []float64{math.NaN()}}, "result"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Encode via raw JSON where the struct can't express the
			// invalid state (NaN fails json.Marshal).
			frame, err := EncodeMessage(tc.m)
			if err != nil {
				return // encoder already rejected it: equally safe
			}
			if _, err := DecodeMessage(frame[4:]); err == nil {
				t.Fatalf("decoded invalid message %+v", tc.m)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	if _, err := DecodeMessage([]byte(`{"v":99,"type":"done"}`)); err == nil {
		t.Fatal("decoded a frame from protocol version 99")
	}
}

// TestSameJobComparesEveryField: a worker rebuilds its evaluator when
// a job differs from the last one in any field, rates included.
func TestSameJobComparesEveryField(t *testing.T) {
	base := Job{Preset: "smoke", Dataset: "c10", Scenario: "chen", Rates: []float64{0, 0.02}, Runs: 6, Seed: 42, Batch: 32}
	same := base
	same.Rates = append([]float64(nil), base.Rates...)
	if !sameJob(base, same) {
		t.Fatal("equal jobs compared different")
	}
	for name, edit := range map[string]func(*Job){
		"preset":     func(j *Job) { j.Preset = "quick" },
		"dataset":    func(j *Job) { j.Dataset = "c100" },
		"scenario":   func(j *Job) { j.Scenario = "cluster" },
		"runs":       func(j *Job) { j.Runs = 7 },
		"seed":       func(j *Job) { j.Seed = 43 },
		"batch":      func(j *Job) { j.Batch = 64 },
		"rate count": func(j *Job) { j.Rates = j.Rates[:1] },
		"rate value": func(j *Job) { j.Rates[1] = 0.03 },
	} {
		j := base
		j.Rates = append([]float64(nil), base.Rates...)
		edit(&j)
		if sameJob(base, j) || sameJob(j, base) {
			t.Errorf("jobs differing in %s compared equal", name)
		}
	}
}
