// Package chaos is the network fault-injection layer for the query
// server: a listener/connection wrapper that — deterministically, from a
// seed — drops connections at arbitrary byte offsets, leaves writes
// half-done, stalls reads and writes, corrupts inbound protocol bytes,
// and injects garbage that never frames into a valid line. It extends
// the executor's fault-injection philosophy (the operator fault matrix
// in internal/exec's tests) one layer up, to the session and wire
// boundary: the server's contract is
// that under any of these faults every query still produces either the
// correct bag or a clean typed error — never a hang, a leak, or a
// crash — and the chaos soak drives that contract under load.
//
// Determinism: every connection draws its own rand.Rand seeded from the
// listener seed and an accept sequence number, so a failing soak run
// replays byte-for-byte from its seed.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freejoin/internal/obs"
)

// Kind names one injected fault class (the metrics label values of
// oj_chaos_injections_total).
type Kind string

// The injected fault kinds.
const (
	// KindDrop closes the connection mid-operation: a read drop while a
	// query executes is a client vanishing mid-execute; a write drop at a
	// byte offset truncates a response on the wire.
	KindDrop Kind = "drop"
	// KindPartialWrite writes a strict prefix of the buffer and errors.
	KindPartialWrite Kind = "partial_write"
	// KindStall sleeps before the operation (bounded by Config.MaxStall).
	KindStall Kind = "stall"
	// KindCorrupt overwrites bytes of an inbound read with 0x01 — a byte
	// no protocol token contains, so a corrupted line can only produce a
	// typed error, never a different valid query.
	KindCorrupt Kind = "corrupt"
	// KindInject returns garbage bytes that were never sent; without a
	// newline they glue onto the next real line, exercising truncated and
	// oversized line handling.
	KindInject Kind = "inject"
)

// ErrInjected is the error injected faults wrap; tests and clients can
// errors.Is against it.
var ErrInjected = errors.New("chaos: injected network fault")

// Config parameterizes the fault mix. The zero value injects nothing.
type Config struct {
	// Seed derives every connection's RNG; the same seed replays the
	// same fault schedule against the same traffic.
	Seed int64
	// Rate is the per-I/O-operation fault probability in [0,1]; each
	// Read and Write rolls once. 0 disables injection entirely.
	Rate float64
	// MaxStall bounds one injected stall (default 5ms). Keep it below
	// the server's idle timeout or stalls escalate into disconnects.
	MaxStall time.Duration
}

// Enabled reports whether this configuration injects anything.
func (c Config) Enabled() bool { return c.Rate > 0 }

func (c Config) maxStall() time.Duration {
	if c.MaxStall <= 0 {
		return 5 * time.Millisecond
	}
	return c.MaxStall
}

// Listener wraps an accept loop so every accepted connection injects
// faults per cfg. It implements net.Listener.
type Listener struct {
	net.Listener
	cfg Config
	seq atomic.Int64
}

// WrapListener wraps ln. With cfg.Enabled() false the listener is
// returned unwrapped, so callers can wire the flag through
// unconditionally.
func WrapListener(ln net.Listener, cfg Config) net.Listener {
	if !cfg.Enabled() {
		return ln
	}
	return &Listener{Listener: ln, cfg: cfg}
}

// Accept returns the next connection wrapped in a fault-injecting Conn.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// splitmix-style step keeps per-connection streams decorrelated even
	// for adjacent sequence numbers.
	seed := int64(uint64(l.cfg.Seed) + 0x9e3779b97f4a7c15*uint64(l.seq.Add(1)))
	return &Conn{Conn: c, cfg: l.cfg, rng: rand.New(rand.NewSource(seed))}, nil
}

// WrapConn wraps one connection with an explicitly seeded fault
// injector — the unit-test entry point below the listener.
func WrapConn(c net.Conn, cfg Config, seed int64) net.Conn {
	return &Conn{Conn: c, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Conn injects faults into one connection's Reads and Writes. Reads and
// Writes may run concurrently (the server reads from a reader goroutine
// while writing responses), so the RNG is mutex-guarded.
type Conn struct {
	net.Conn
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
}

// roll draws the fault decision for one I/O operation: the kind to
// inject ("" for none) plus the RNG values the kind needs, under one
// lock so concurrent Read/Write stay deterministic per-stream.
func (c *Conn) roll(kinds []Kind) (Kind, float64, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= c.cfg.Rate {
		return "", 0, 0
	}
	k := kinds[c.rng.Intn(len(kinds))]
	frac := c.rng.Float64()
	stall := time.Duration(c.rng.Int63n(int64(c.cfg.maxStall()) + 1))
	return k, frac, stall
}

var (
	readKinds  = []Kind{KindDrop, KindStall, KindCorrupt, KindInject}
	writeKinds = []Kind{KindDrop, KindPartialWrite, KindStall}
)

// Read implements net.Conn. Injected faults: stall before the read,
// drop (the underlying connection is closed), corruption of delivered
// bytes, or injection of garbage bytes that were never on the wire.
func (c *Conn) Read(p []byte) (int, error) {
	kind, frac, stall := c.roll(readKinds)
	switch kind {
	case KindStall:
		note(KindStall)
		time.Sleep(stall)
	case KindDrop:
		note(KindDrop)
		c.Conn.Close()
		return 0, fmt.Errorf("read: %w (dropped)", ErrInjected)
	case KindInject:
		if len(p) > 0 {
			note(KindInject)
			n := 1 + int(frac*float64(min(len(p), 256)-1))
			for i := 0; i < n; i++ {
				p[i] = 'Z' // printable garbage, never a newline
			}
			return n, nil
		}
	}
	n, err := c.Conn.Read(p)
	if kind == KindCorrupt && err == nil && n > 0 {
		note(KindCorrupt)
		// Overwrite a deterministic fraction of the delivered bytes with
		// 0x01: not whitespace, not printable, in no valid token — the
		// lexer rejects it, so corruption cannot alias another query.
		// Line terminators are spared: eating a '\n' would stall the
		// framing until the idle timeout, which is the stall and drop
		// kinds' job — corrupt garbles content, not message boundaries.
		stride := 1 + int(frac*8)
		for i := 0; i < n; i += stride {
			if p[i] == '\n' || p[i] == '\r' {
				continue
			}
			p[i] = 0x01
		}
	}
	return n, err
}

// Write implements net.Conn. Injected faults: stall before the write,
// drop at an arbitrary byte offset (a strict prefix reaches the wire,
// then the connection closes), or a partial write reported as an error.
func (c *Conn) Write(p []byte) (int, error) {
	kind, frac, stall := c.roll(writeKinds)
	switch kind {
	case KindStall:
		note(KindStall)
		time.Sleep(stall)
	case KindDrop:
		note(KindDrop)
		n := int(frac * float64(len(p)))
		if n > 0 {
			n, _ = c.Conn.Write(p[:n])
		}
		c.Conn.Close()
		return n, fmt.Errorf("write: %w (dropped at byte offset %d)", ErrInjected, n)
	case KindPartialWrite:
		note(KindPartialWrite)
		n := int(frac * float64(len(p)))
		if n > 0 {
			var werr error
			if n, werr = c.Conn.Write(p[:n]); werr != nil {
				return n, werr
			}
		}
		return n, fmt.Errorf("write: %w (partial, %d of %d bytes)", ErrInjected, n, len(p))
	}
	return c.Conn.Write(p)
}

// note records one injected fault in the process metrics.
func note(k Kind) {
	if c := kindCounter(k); c != nil {
		c.Inc()
	}
}

// kindCounter maps a fault kind to its oj_chaos_injections_total series.
func kindCounter(k Kind) *obs.Counter {
	switch k {
	case KindDrop:
		return obs.ChaosDrops
	case KindPartialWrite:
		return obs.ChaosPartialWrites
	case KindStall:
		return obs.ChaosStalls
	case KindCorrupt:
		return obs.ChaosCorruptions
	case KindInject:
		return obs.ChaosInjected
	default:
		return nil
	}
}
