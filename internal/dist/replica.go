package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"pccheck/internal/storage"
)

// Peer replication tier: a storage.Device whose backing bytes live on
// another machine, reached over any net.Conn (the training cluster's
// interconnect in production, net.Pipe or loopback TCP in tests). Plugged
// into storage.Tiered as a lower level it gives checkpoints a survives-the-
// whole-node durability tier: the drainer ships committed checkpoints across
// the wire, the peer applies the writes to its local device, and recovery can
// read the replica back if every local tier is gone.
//
// The protocol is a length-prefixed op stream with one-byte acks, the same
// shape as the Gemini baseline's transfer framing (the dist.Transport
// carries only fixed 21-byte control messages, so bulk replication gets its
// own connection). Every wire failure is classified Transient so the tiered
// drainer retries with backoff and then lets the tier go stale rather than
// wrong — a partitioned peer degrades staleness, never correctness.

// Replica wire op codes.
const (
	replicaOpWrite byte = 1 + iota
	replicaOpSync
	replicaOpRead
	replicaOpMark
)

// replicaMaxFrame bounds a single payload so a corrupt length prefix cannot
// make either side allocate unbounded memory.
const replicaMaxFrame = 1 << 30

// ReplicaDevice is the client side: a storage.Device forwarding every
// operation to a ReplicaServer over conn. Operations are serialized on the
// connection; each waits for the peer's ack, so Sync returning nil means
// the peer's device accepted the barrier.
type ReplicaDevice struct {
	mu   sync.Mutex
	conn net.Conn
	size int64
	bw   *storage.Throttle
}

// DialReplica wraps an established connection to a peer serving a device of
// the given size. bw, when non-nil, paces payload transfer like a NIC cap.
func DialReplica(conn net.Conn, size int64, bw *storage.Throttle) (*ReplicaDevice, error) {
	if size <= 0 {
		return nil, fmt.Errorf("dist: replica device size %d", size)
	}
	return &ReplicaDevice{conn: conn, size: size, bw: bw}, nil
}

func replicaErr(op string, err error) error {
	return storage.Transient(fmt.Errorf("dist: replica %s: %w", op, err))
}

// roundTrip sends header (+payload) and waits for the peer's one-byte ack.
// Callers hold d.mu.
func (d *ReplicaDevice) roundTrip(op string, hdr []byte, payload []byte) error {
	if _, err := d.conn.Write(hdr); err != nil {
		return replicaErr(op, err)
	}
	// Stream in 1 MB pieces so a throttle paces the transfer like a real
	// NIC rather than admitting one giant burst.
	const piece = 1 << 20
	for off := 0; off < len(payload); off += piece {
		end := off + piece
		if end > len(payload) {
			end = len(payload)
		}
		d.bw.Acquire(end - off)
		if _, err := d.conn.Write(payload[off:end]); err != nil {
			return replicaErr(op, err)
		}
	}
	var ack [1]byte
	if _, err := io.ReadFull(d.conn, ack[:]); err != nil {
		return replicaErr(op, err)
	}
	if ack[0] != 1 {
		return fmt.Errorf("dist: peer rejected %s", op)
	}
	return nil
}

// WriteAt implements storage.Device.
func (d *ReplicaDevice) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var hdr [17]byte
	hdr[0] = replicaOpWrite
	binary.LittleEndian.PutUint64(hdr[1:], uint64(off))
	binary.LittleEndian.PutUint64(hdr[9:], uint64(len(p)))
	return d.roundTrip("write", hdr[:], p)
}

// Sync implements storage.Device: the ack means the peer's device accepted
// the barrier, so the replicated bytes are durable with the peer's own
// persistence semantics.
func (d *ReplicaDevice) Sync(off, n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var hdr [17]byte
	hdr[0] = replicaOpSync
	binary.LittleEndian.PutUint64(hdr[1:], uint64(off))
	binary.LittleEndian.PutUint64(hdr[9:], uint64(n))
	return d.roundTrip("sync", hdr[:], nil)
}

// Persist implements storage.Device: write + barrier in one exchange pair.
func (d *ReplicaDevice) Persist(p []byte, off int64) error {
	if err := d.WriteAt(p, off); err != nil {
		return err
	}
	return d.Sync(off, int64(len(p)))
}

// ReadAt implements storage.Device — the recovery path: a restarted node
// reads the replica back when its local tiers are gone.
func (d *ReplicaDevice) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var hdr [17]byte
	hdr[0] = replicaOpRead
	binary.LittleEndian.PutUint64(hdr[1:], uint64(off))
	binary.LittleEndian.PutUint64(hdr[9:], uint64(len(p)))
	if _, err := d.conn.Write(hdr[:]); err != nil {
		return replicaErr("read", err)
	}
	var status [1]byte
	if _, err := io.ReadFull(d.conn, status[:]); err != nil {
		return replicaErr("read", err)
	}
	if status[0] != 1 {
		return fmt.Errorf("dist: peer rejected read [%d,+%d)", off, len(p))
	}
	if _, err := io.ReadFull(d.conn, p); err != nil {
		return replicaErr("read", err)
	}
	return nil
}

// Mark implements storage.Marker: the tiered drainer stamps the peer with
// the checkpoint counter it just made durable there, so the peer knows its
// own ack floor (and a crash-journaling backing device records it).
func (d *ReplicaDevice) Mark(value uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var hdr [9]byte
	hdr[0] = replicaOpMark
	binary.LittleEndian.PutUint64(hdr[1:], value)
	_ = d.roundTrip("mark", hdr[:], nil)
}

// Size implements storage.Device.
func (d *ReplicaDevice) Size() int64 { return d.size }

// Kind implements storage.Device.
func (d *ReplicaDevice) Kind() storage.Kind { return storage.KindRemote }

// Close implements io.Closer.
func (d *ReplicaDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conn.Close()
}

// ReplicaServer is the peer side: it applies the op stream to a local
// backing device. One server serves one client connection.
type ReplicaServer struct {
	backing storage.Device

	mu    sync.Mutex
	floor uint64
	done  chan struct{}
	err   error
}

// ServeReplica starts applying ops from conn onto backing in the
// background. The caller keeps ownership of backing (it is not closed) —
// after the client is gone, recovery can open it directly.
func ServeReplica(conn net.Conn, backing storage.Device) *ReplicaServer {
	s := &ReplicaServer{backing: backing, done: make(chan struct{})}
	go s.serve(conn)
	return s
}

// Floor returns the highest checkpoint counter the drainer has marked
// durable on this replica.
func (s *ReplicaServer) Floor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floor
}

// Wait blocks until the client connection ends and returns the terminal
// error, if any (nil on clean EOF).
func (s *ReplicaServer) Wait() error {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *ReplicaServer) fail(err error) {
	s.mu.Lock()
	if s.err == nil && err != io.EOF {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *ReplicaServer) serve(conn net.Conn) {
	defer close(s.done)
	defer conn.Close()
	ack := func(ok bool) bool {
		b := []byte{0}
		if ok {
			b[0] = 1
		}
		_, err := conn.Write(b)
		return err == nil
	}
	var op [1]byte
	for {
		if _, err := io.ReadFull(conn, op[:]); err != nil {
			s.fail(err)
			return
		}
		switch op[0] {
		case replicaOpWrite, replicaOpSync, replicaOpRead:
			var hdr [16]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				s.fail(err)
				return
			}
			off := int64(binary.LittleEndian.Uint64(hdr[0:]))
			n := int64(binary.LittleEndian.Uint64(hdr[8:]))
			if n < 0 || n > replicaMaxFrame {
				s.fail(fmt.Errorf("dist: implausible replica frame of %d bytes", n))
				return
			}
			switch op[0] {
			case replicaOpWrite:
				p := make([]byte, n)
				if _, err := io.ReadFull(conn, p); err != nil {
					s.fail(err)
					return
				}
				if !ack(s.backing.WriteAt(p, off) == nil) {
					return
				}
			case replicaOpSync:
				if !ack(s.backing.Sync(off, n) == nil) {
					return
				}
			case replicaOpRead:
				p := make([]byte, n)
				if err := s.backing.ReadAt(p, off); err != nil {
					if !ack(false) {
						return
					}
					continue
				}
				if !ack(true) {
					return
				}
				// A zero-length net.Pipe write blocks for a reader the
				// client never starts; io.ReadFull on an empty buffer
				// performs no read either, so skip the empty frame.
				if len(p) > 0 {
					if _, err := conn.Write(p); err != nil {
						s.fail(err)
						return
					}
				}
			}
		case replicaOpMark:
			var hdr [8]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				s.fail(err)
				return
			}
			v := binary.LittleEndian.Uint64(hdr[:])
			s.mu.Lock()
			if v > s.floor {
				s.floor = v
			}
			s.mu.Unlock()
			if m, ok := s.backing.(storage.Marker); ok {
				m.Mark(v)
			}
			if !ack(true) {
				return
			}
		default:
			s.fail(fmt.Errorf("dist: unknown replica op %d", op[0]))
			return
		}
	}
}

var (
	_ storage.Device = (*ReplicaDevice)(nil)
	_ storage.Marker = (*ReplicaDevice)(nil)
)
