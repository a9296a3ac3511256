package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// ProtocolVersion is the coordinator/worker wire protocol version.
// Every message carries it; a mismatch is rejected at decode so a
// stale worker binary fails loudly instead of folding garbage.
const ProtocolVersion = 1

// MaxFrameBytes bounds one wire frame. The largest legitimate message
// is a result carrying one lease's per-run accuracies — a few KiB —
// so anything near the cap is hostile or corrupt, and the reader can
// reject it before allocating.
const MaxFrameBytes = 1 << 20

// MsgType labels one protocol message.
type MsgType string

// Protocol message types. The conversation is: worker sends hello,
// coordinator replies job; worker then loops lease_req → (lease |
// nolease | done), evaluates each lease (sending heartbeat frames
// while it works), and reports result. Either side may send error
// before closing the connection.
const (
	MsgHello     MsgType = "hello"
	MsgJob       MsgType = "job"
	MsgLeaseReq  MsgType = "lease_req"
	MsgLease     MsgType = "lease"
	MsgNoLease   MsgType = "nolease"
	MsgHeartbeat MsgType = "heartbeat"
	MsgResult    MsgType = "result"
	MsgDone      MsgType = "done"
	MsgError     MsgType = "error"
)

// Job describes the sweep a coordinator is sharding, sent to every
// worker at registration. Workers resolve the model and dataset from
// it (preset + dataset name reproduce the exact trained weights, since
// training is deterministic); Scenario is a fault.Parse spec.
type Job struct {
	Preset   string    `json:"preset,omitempty"`
	Dataset  string    `json:"dataset,omitempty"`
	Scenario string    `json:"scenario,omitempty"`
	Rates    []float64 `json:"rates"`
	Runs     int       `json:"runs"`
	Seed     uint64    `json:"seed"`
	Batch    int       `json:"batch"`
}

// Lease is one unit of work: the contiguous Monte-Carlo run range
// [Start, End) of rate index RateIndex, to be drawn from the
// positional stream rooted at Seed (the sweep's RateSeed for that
// rate). TTLMs is the heartbeat deadline: a lease not completed or
// heartbeated within it is re-issued to another worker.
type Lease struct {
	ID        int64   `json:"id"`
	RateIndex int     `json:"rate_index"`
	Rate      float64 `json:"rate"`
	Seed      uint64  `json:"seed"`
	Start     int     `json:"start"`
	End       int     `json:"end"`
	TTLMs     int64   `json:"ttl_ms"`
}

// Runs returns the number of Monte-Carlo runs the lease covers.
func (l Lease) Runs() int { return l.End - l.Start }

// TTL returns the lease deadline as a duration.
func (l Lease) TTL() time.Duration { return time.Duration(l.TTLMs) * time.Millisecond }

// Message is one wire frame's payload. Only the fields relevant to a
// Type are set.
type Message struct {
	V    int     `json:"v"`
	Type MsgType `json:"type"`
	// Worker identifies the sender on hello/heartbeat (and the
	// intended worker on coordinator replies, informationally).
	Worker string `json:"worker,omitempty"`
	// PID is the worker's OS process id, sent with hello so operators
	// (and the chaos suite) can correlate pool members with processes.
	PID     int    `json:"pid,omitempty"`
	Job     *Job   `json:"job,omitempty"`
	Lease   *Lease `json:"lease,omitempty"`
	LeaseID int64  `json:"lease_id,omitempty"`
	// Accs carries a result's per-run accuracies, index 0 = the
	// lease's Start run.
	Accs []float64 `json:"accs,omitempty"`
	// Err carries a result's evaluation failure, or an error message.
	Err string `json:"err,omitempty"`
	// RetryMs tells a worker how long to wait before the next
	// lease_req after a nolease.
	RetryMs int64 `json:"retry_ms,omitempty"`
}

// EncodeMessage serializes m into one length-prefixed frame.
func EncodeMessage(m Message) ([]byte, error) {
	m.V = ProtocolVersion
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("dist: encode %s: %w", m.Type, err)
	}
	if len(body) > MaxFrameBytes {
		return nil, fmt.Errorf("dist: %s message is %d bytes, frame cap is %d", m.Type, len(body), MaxFrameBytes)
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	return frame, nil
}

// DecodeMessage parses and validates one frame payload (the bytes
// after the length prefix). Arbitrary input yields a descriptive
// error, never a panic — the fuzz target pins this.
func DecodeMessage(b []byte) (Message, error) {
	var m Message
	if len(b) > MaxFrameBytes {
		return m, fmt.Errorf("dist: %d-byte message exceeds frame cap %d", len(b), MaxFrameBytes)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return Message{}, fmt.Errorf("dist: malformed message: %v", err)
	}
	if m.V != ProtocolVersion {
		return Message{}, fmt.Errorf("dist: protocol version %d, want %d", m.V, ProtocolVersion)
	}
	if err := m.validate(); err != nil {
		return Message{}, err
	}
	return m, nil
}

// validate enforces per-type structural invariants so the state
// machines on both sides only ever see well-formed messages.
func (m Message) validate() error {
	switch m.Type {
	case MsgHello:
		if m.Worker == "" {
			return fmt.Errorf("dist: hello without worker id")
		}
	case MsgJob:
		if m.Job == nil {
			return fmt.Errorf("dist: job message without job")
		}
		return m.Job.validate()
	case MsgLease:
		if m.Lease == nil {
			return fmt.Errorf("dist: lease message without lease")
		}
		return m.Lease.validate()
	case MsgHeartbeat:
		if m.LeaseID <= 0 {
			return fmt.Errorf("dist: heartbeat without lease id")
		}
	case MsgResult:
		if m.LeaseID <= 0 {
			return fmt.Errorf("dist: result without lease id")
		}
		if m.Err == "" && len(m.Accs) == 0 {
			return fmt.Errorf("dist: result %d has neither accuracies nor an error", m.LeaseID)
		}
		for i, a := range m.Accs {
			if math.IsNaN(a) || a < 0 || a > 1 {
				return fmt.Errorf("dist: result %d accs[%d] = %v is not an accuracy", m.LeaseID, i, a)
			}
		}
	case MsgLeaseReq, MsgNoLease, MsgDone, MsgError:
	default:
		return fmt.Errorf("dist: unknown message type %q", m.Type)
	}
	return nil
}

func (j *Job) validate() error {
	if len(j.Rates) == 0 || len(j.Rates) > 4096 {
		return fmt.Errorf("dist: job has %d rates", len(j.Rates))
	}
	for i, r := range j.Rates {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("dist: job rates[%d] = %v is outside [0, 1]", i, r)
		}
	}
	if j.Runs < 1 || j.Runs > 1<<20 {
		return fmt.Errorf("dist: job runs = %d is outside [1, %d]", j.Runs, 1<<20)
	}
	if j.Batch < 0 {
		return fmt.Errorf("dist: job batch = %d is negative", j.Batch)
	}
	return nil
}

func (l *Lease) validate() error {
	if l.ID <= 0 {
		return fmt.Errorf("dist: lease id %d", l.ID)
	}
	if l.RateIndex < 0 || l.RateIndex > 4096 {
		return fmt.Errorf("dist: lease rate index %d", l.RateIndex)
	}
	if math.IsNaN(l.Rate) || l.Rate < 0 || l.Rate > 1 {
		return fmt.Errorf("dist: lease rate %v is outside [0, 1]", l.Rate)
	}
	if l.Start < 0 || l.End <= l.Start || l.End > 1<<20 {
		return fmt.Errorf("dist: lease run range [%d, %d)", l.Start, l.End)
	}
	if l.TTLMs <= 0 {
		return fmt.Errorf("dist: lease ttl %dms", l.TTLMs)
	}
	return nil
}

// frameConn wraps a connection with the length-prefixed message codec.
// Sends are serialized by a mutex so a heartbeat goroutine and the
// session loop can share the connection; reads have a single owner.
type frameConn struct {
	c   net.Conn
	r   *bufio.Reader
	wmu sync.Mutex
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{c: c, r: bufio.NewReaderSize(c, 32<<10)}
}

func (fc *frameConn) send(m Message) error {
	frame, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	fc.c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_, err = fc.c.Write(frame)
	return err
}

// recv reads one message, failing if no complete frame arrives within
// timeout (0 → no deadline).
func (fc *frameConn) recv(timeout time.Duration) (Message, error) {
	if timeout > 0 {
		fc.c.SetReadDeadline(time.Now().Add(timeout))
	} else {
		fc.c.SetReadDeadline(time.Time{})
	}
	var hdr [4]byte
	if _, err := io.ReadFull(fc.r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return Message{}, fmt.Errorf("dist: implausible frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(fc.r, body); err != nil {
		return Message{}, err
	}
	return DecodeMessage(body)
}

func (fc *frameConn) close() { fc.c.Close() }
