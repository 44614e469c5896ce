// Package proto defines the wire protocol between the ANOR cluster tier
// and job tier (§4): length-framed JSON messages over a stream transport.
// The paper uses one TCP connection between the cluster manager on the
// head node and a job-tier power-modeling process per job; the same
// framing works over net.Pipe for in-process experiments.
//
// A frame is a 4-byte big-endian body length, then the envelope as
// compact JSON. Send encodes both into one reused buffer, without
// reflection, and hands the transport one Write per frame; its bytes are
// exactly json.Marshal's, so the wire is the same as when Send called
// json.Marshal, and peers on either side interoperate unchanged. Recv
// reads the body into a reused buffer and parses the canonical form
// json.Marshal writes (exact keys, no whitespace, strings without
// escapes) directly. Any other body, such as one with unknown fields,
// escaped strings or whitespace, goes to json.Unmarshal as before, so
// what Recv accepts and returns does not depend on which path decoded it.
//
// The message flow is:
//
//	job  → cluster: Hello        (once, on connect: identity, size, claimed type)
//	job  → cluster: ModelUpdate  (periodic: model coefficients, epochs, power)
//	cluster → job : SetBudget    (on every rebudget: the job's per-node cap)
//	job  → cluster: Goodbye      (once, on completion)
package proto

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// Kind discriminates message payloads.
type Kind string

// Message kinds.
const (
	KindHello       Kind = "hello"
	KindModelUpdate Kind = "model_update"
	KindSetBudget   Kind = "set_budget"
	KindGoodbye     Kind = "goodbye"
	// KindPing and KindPong are the liveness probe pair. They are
	// backward compatible: an old peer receives them as unknown kinds
	// (delivered with ErrUnknownKind semantics, see Recv) and its
	// dispatch switch simply ignores them.
	KindPing Kind = "ping"
	KindPong Kind = "pong"
)

// Hello announces a job to the cluster manager when its endpoint process
// connects.
type Hello struct {
	// JobID uniquely identifies the job.
	JobID string `json:"job_id"`
	// TypeName is the job type the scheduler believes this job is
	// ("bt.D.81", ...). Empty means unknown — the cluster tier applies
	// its default-model policy (§6.1.2).
	TypeName string `json:"type_name,omitempty"`
	// Nodes is the job's node count.
	Nodes int `json:"nodes"`
}

// Registrable reports whether h names a job a controller can budget: a
// non-empty JobID and at least one node. Validate does not require
// either, so each tier that registers sessions checks this at its
// handshake.
func (h *Hello) Registrable() bool { return h.JobID != "" && h.Nodes > 0 }

// ModelUpdate carries the job tier's current power-performance model and
// latest measurements up to the cluster tier.
type ModelUpdate struct {
	JobID string `json:"job_id"`
	// A, B, C are the quadratic model coefficients (§4.2).
	A float64 `json:"a"`
	B float64 `json:"b"`
	C float64 `json:"c"`
	// PMinWatts and PMaxWatts bound the model's validity.
	PMinWatts float64 `json:"p_min_watts"`
	PMaxWatts float64 `json:"p_max_watts"`
	// Trained reports whether the coefficients come from an online fit
	// (true) or the modeler's default (false).
	Trained bool `json:"trained"`
	// Epochs is the job's epoch count at TimestampUnixNano.
	Epochs int64 `json:"epochs"`
	// PowerWatts is the job's latest measured power (all nodes).
	PowerWatts float64 `json:"power_watts"`
	// TimestampUnixNano stamps the underlying sample; the paper added
	// timestamps so asynchronous tiers can be mapped onto each other
	// (§7.2).
	TimestampUnixNano int64 `json:"timestamp_unix_nano"`
}

// Model reconstructs the perfmodel from the update's coefficients.
func (u ModelUpdate) Model() perfmodel.Model {
	return perfmodel.Model{
		A: u.A, B: u.B, C: u.C,
		PMin: units.Power(u.PMinWatts), PMax: units.Power(u.PMaxWatts),
	}
}

// ModelUpdateFor builds an update from a model.
func ModelUpdateFor(jobID string, m perfmodel.Model, trained bool) ModelUpdate {
	return ModelUpdate{
		JobID: jobID,
		A:     m.A, B: m.B, C: m.C,
		PMinWatts: m.PMin.Watts(), PMaxWatts: m.PMax.Watts(),
		Trained: trained,
	}
}

// SetBudget instructs a job's endpoint to enforce a new per-node cap.
type SetBudget struct {
	JobID string `json:"job_id"`
	// PowerCapWatts is the per-node cap to enforce across the job.
	PowerCapWatts float64 `json:"power_cap_watts"`
}

// Goodbye announces orderly job completion.
type Goodbye struct {
	JobID string `json:"job_id"`
}

// Ping is a liveness probe. Either side may send one; the peer echoes the
// sequence number back in a Pong so round trips can be matched.
type Ping struct {
	// Seq matches a pong to its ping.
	Seq uint64 `json:"seq"`
	// TimestampUnixNano stamps the probe's send time for RTT accounting.
	TimestampUnixNano int64 `json:"timestamp_unix_nano,omitempty"`
}

// Pong answers a Ping, echoing its sequence number and timestamp.
type Pong struct {
	Seq               uint64 `json:"seq"`
	TimestampUnixNano int64  `json:"timestamp_unix_nano,omitempty"`
}

// PongFor builds the pong answering a ping.
func PongFor(p Ping) Pong { return Pong{Seq: p.Seq, TimestampUnixNano: p.TimestampUnixNano} }

// Envelope is the framed unit: a kind plus exactly one payload.
//
// Trace optionally carries the causal-trace context of the decision
// this message implements or reflects (a SetBudget carries its budget
// decision's context; a ModelUpdate echoes the context of the last
// budget it measured under). The field is backward and forward
// compatible: old peers ignore it, Validate accepts its absence, and
// senders without tracing omit it entirely.
type Envelope struct {
	Kind Kind `json:"kind"`
	// Epoch is the sender's controller-fencing epoch: bumped every time
	// a controller generation starts, carried on Hello (the endpoint's
	// highest epoch heard) and on SetBudget/Ping (the controller's own),
	// so either side can reject traffic from a superseded controller
	// after a failover. Zero means unfenced (durability disabled) and is
	// elided from the wire, keeping old and new binaries interoperable.
	Epoch       uint64            `json:"epoch,omitempty"`
	Trace       *obs.TraceContext `json:"trace,omitempty"`
	Hello       *Hello            `json:"hello,omitempty"`
	ModelUpdate *ModelUpdate      `json:"model_update,omitempty"`
	SetBudget   *SetBudget        `json:"set_budget,omitempty"`
	Goodbye     *Goodbye          `json:"goodbye,omitempty"`
	Ping        *Ping             `json:"ping,omitempty"`
	Pong        *Pong             `json:"pong,omitempty"`
}

// TraceContext returns the envelope's trace context, zero when absent.
func (e Envelope) TraceContext() obs.TraceContext {
	if e.Trace == nil {
		return obs.TraceContext{}
	}
	return *e.Trace
}

// ErrUnknownKind marks an envelope whose kind this peer does not
// recognize. Send rejects them (a local programming error), but Recv
// delivers them untouched so a newer peer's message kinds never kill
// the connection — dispatch switches simply fall through.
var ErrUnknownKind = errors.New("proto: unknown message kind")

// Validate checks that the envelope's kind matches its payload.
// Unrecognized kinds return an error wrapping ErrUnknownKind.
func (e Envelope) Validate() error {
	switch e.Kind {
	case KindHello:
		if e.Hello == nil {
			return fmt.Errorf("proto: %s envelope missing payload", e.Kind)
		}
	case KindModelUpdate:
		if e.ModelUpdate == nil {
			return fmt.Errorf("proto: %s envelope missing payload", e.Kind)
		}
	case KindSetBudget:
		if e.SetBudget == nil {
			return fmt.Errorf("proto: %s envelope missing payload", e.Kind)
		}
	case KindGoodbye:
		if e.Goodbye == nil {
			return fmt.Errorf("proto: %s envelope missing payload", e.Kind)
		}
	case KindPing:
		if e.Ping == nil {
			return fmt.Errorf("proto: %s envelope missing payload", e.Kind)
		}
	case KindPong:
		if e.Pong == nil {
			return fmt.Errorf("proto: %s envelope missing payload", e.Kind)
		}
	default:
		return fmt.Errorf("%w %q", ErrUnknownKind, e.Kind)
	}
	return nil
}

// MaxFrame bounds accepted frame sizes; all protocol messages are tiny, so
// anything larger indicates a corrupt or hostile stream. The bound is
// enforced before the body allocation, so a forged 4-byte length prefix
// can never make Recv allocate more than this.
const MaxFrame = 1 << 20

// maxKeptBuf is the largest frame buffer a Conn keeps for its next frame,
// so one large frame cannot pin memory for the life of a session.
const maxKeptBuf = 64 << 10

// ErrFrameTooLarge marks a frame whose length prefix (or encoded body)
// exceeds MaxFrame. Receivers treat it as a fatal stream error: after a
// corrupt prefix there is no way to resynchronize the framing.
var ErrFrameTooLarge = errors.New("proto: frame exceeds maximum size")

// deadliner is the optional transport capability the read/write timeouts
// need; net.Conn (and net.Pipe ends) implement it.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// Conn frames envelopes over a reliable byte stream. Send and Recv are
// individually safe for concurrent use (one writer lock, one reader lock),
// supporting the usual pattern of a dedicated receive goroutine plus
// multiple senders.
type Conn struct {
	wmu sync.Mutex
	rmu sync.Mutex
	rw  io.ReadWriteCloser
	br  *bufio.Reader
	// wbuf holds the frame Send encodes, length prefix first; guarded by
	// wmu. rhdr and rbuf receive a frame's prefix and body; guarded by
	// rmu. Neither buffer is kept above maxKeptBuf.
	wbuf []byte
	rhdr [4]byte
	rbuf []byte

	// d is the transport's deadline capability, nil when absent.
	d deadliner
	// readTimeout/writeTimeout hold per-operation timeouts in
	// nanoseconds; 0 disables. Atomics so SetTimeouts never contends
	// with an in-flight Send/Recv.
	readTimeout  atomic.Int64
	writeTimeout atomic.Int64
}

// NewConn wraps a stream (net.Conn, net.Pipe end, ...).
func NewConn(rw io.ReadWriteCloser) *Conn {
	c := &Conn{rw: rw, br: bufio.NewReader(rw)}
	if d, ok := rw.(deadliner); ok {
		c.d = d
	}
	return c
}

// SetTimeouts arms per-operation deadlines: every Recv must complete
// within read, every Send within write (0 disables either). Timeouts
// require a transport with deadline support (any net.Conn); on plain
// io.ReadWriteClosers they are silently inert. A timed-out operation
// returns the transport's timeout error (a net.Error with Timeout() ==
// true) and, as with any mid-frame failure, the connection is no longer
// usable for framing.
func (c *Conn) SetTimeouts(read, write time.Duration) {
	c.readTimeout.Store(int64(read))
	c.writeTimeout.Store(int64(write))
}

// Send validates and encodes one envelope, then writes its frame, length
// prefix and body, in one Write.
func (c *Conn) Send(e Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := appendEnvelope(append(c.wbuf[:0], 0, 0, 0, 0), &e)
	c.wbuf = keep(buf)
	if err != nil {
		return err
	}
	n := len(buf) - 4
	if n > MaxFrame {
		return fmt.Errorf("%w (%d > %d bytes)", ErrFrameTooLarge, n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	if wt := time.Duration(c.writeTimeout.Load()); wt > 0 && c.d != nil {
		if err := c.d.SetWriteDeadline(time.Now().Add(wt)); err != nil {
			return err
		}
	}
	_, err = c.rw.Write(buf)
	return err
}

// keep returns buf emptied for reuse, or nil when it is larger than
// maxKeptBuf.
func keep(buf []byte) []byte {
	if cap(buf) > maxKeptBuf {
		return nil
	}
	return buf[:0]
}

// Recv blocks for the next envelope. It returns io.EOF (or the transport's
// close error) when the peer disconnects. Well-formed envelopes of an
// unrecognized kind are returned without error — forward compatibility
// with newer peers' message types — so dispatch loops must switch on
// Kind and ignore what they don't handle (all in-tree ones do).
func (c *Conn) Recv() (Envelope, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if rt := time.Duration(c.readTimeout.Load()); rt > 0 && c.d != nil {
		if err := c.d.SetReadDeadline(time.Now().Add(rt)); err != nil {
			return Envelope{}, err
		}
	}
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(c.rhdr[:])
	if n > MaxFrame {
		return Envelope{}, fmt.Errorf("%w (prefix claims %d > %d bytes)", ErrFrameTooLarge, n, MaxFrame)
	}
	if uint32(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	body := c.rbuf[:n]
	c.rbuf = keep(body)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return Envelope{}, err
	}
	e, ok := decodeEnvelope(body)
	if !ok {
		var err error
		if e, err = unmarshalEnvelope(body); err != nil {
			return Envelope{}, err
		}
	}
	if err := e.Validate(); err != nil && !errors.Is(err, ErrUnknownKind) {
		return Envelope{}, err
	}
	return e, nil
}

// unmarshalEnvelope decodes a body the canonical decoder declined. It is
// a function of its own so that only this path pays for the heap
// envelope json.Unmarshal needs.
func unmarshalEnvelope(body []byte) (Envelope, error) {
	var e Envelope
	err := json.Unmarshal(body, &e)
	return e, err
}

// Close closes the underlying stream, unblocking any pending Recv.
func (c *Conn) Close() error { return c.rw.Close() }
