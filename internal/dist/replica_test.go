package dist

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/storage"
)

func replicaPair(t *testing.T, size int64) (*ReplicaDevice, *ReplicaServer, storage.Device) {
	t.Helper()
	backing := storage.NewRAM(size)
	cc, sc := net.Pipe()
	srv := ServeReplica(sc, backing)
	dev, err := DialReplica(cc, size, nil)
	if err != nil {
		t.Fatalf("DialReplica: %v", err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev, srv, backing
}

func TestReplicaDeviceRoundTrip(t *testing.T) {
	dev, srv, backing := replicaPair(t, 4096)

	want := bytes.Repeat([]byte{0x5c}, 1024)
	if err := dev.Persist(want, 512); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	got := make([]byte, len(want))
	if err := dev.ReadAt(got, 512); err != nil {
		t.Fatalf("ReadAt over the wire: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read-back over the wire mismatch")
	}
	direct := make([]byte, len(want))
	if err := backing.ReadAt(direct, 512); err != nil {
		t.Fatalf("backing ReadAt: %v", err)
	}
	if !bytes.Equal(direct, want) {
		t.Fatal("peer backing does not hold the replicated bytes")
	}

	// Out-of-range ops are rejected by the peer, not silently applied.
	if err := dev.WriteAt([]byte{1}, 4096); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := dev.ReadAt(make([]byte, 1), 4096); err == nil {
		t.Fatal("out-of-range read accepted")
	}

	dev.Mark(9)
	if got := srv.Floor(); got != 9 {
		t.Fatalf("server floor = %d, want 9", got)
	}
}

func TestReplicaWireErrorsAreTransient(t *testing.T) {
	backing := storage.NewRAM(1024)
	cc, sc := net.Pipe()
	ServeReplica(sc, backing)
	dev, err := DialReplica(cc, 1024, nil)
	if err != nil {
		t.Fatalf("DialReplica: %v", err)
	}
	sc.Close() // partition the peer
	werr := dev.WriteAt([]byte{1}, 0)
	if werr == nil {
		t.Fatal("write to partitioned peer succeeded")
	}
	if !storage.IsTransient(werr) {
		t.Fatalf("wire error %v not classified transient — the tiered drainer would not retry", werr)
	}
}

// TestReplicaAsTier runs the full stack: engine → Tiered(RAM, replica over
// net.Pipe) → drainer replays across the wire → a second node recovers the
// newest checkpoint from the peer after total local loss.
func TestReplicaAsTier(t *testing.T) {
	cfg := core.Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	size := core.DeviceBytesFor(cfg)
	dev, srv, backing := replicaPair(t, size)

	tiered, err := storage.NewTiered([]storage.Device{storage.NewRAM(size), dev})
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	c, err := core.New(tiered, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var want []byte
	const saves = 6
	for i := 1; i <= saves; i++ {
		want = bytes.Repeat([]byte{byte(i)}, 2048+i)
		if _, err := c.Checkpoint(context.Background(), core.BytesSource(want)); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("replica tier did not converge")
	}
	c.Close()

	// The drainer's floor mark reaches the peer (it is sent just after the
	// cursor advances, so poll briefly).
	deadline := time.Now().Add(2 * time.Second)
	for srv.Floor() != saves {
		if time.Now().After(deadline) {
			t.Fatalf("peer floor = %d, want %d", srv.Floor(), saves)
		}
		time.Sleep(time.Millisecond)
	}
	tiered.Close()

	// Total local loss: only the peer's backing device survives. A fresh
	// node dials the peer and recovers over the wire.
	cc2, sc2 := net.Pipe()
	ServeReplica(sc2, backing)
	redev, err := DialReplica(cc2, size, nil)
	if err != nil {
		t.Fatalf("DialReplica (recovery): %v", err)
	}
	defer redev.Close()
	p, ctr, err := core.Recover(redev)
	if err != nil {
		t.Fatalf("Recover over the wire: %v", err)
	}
	if ctr != saves {
		t.Fatalf("recovered counter %d, want %d", ctr, saves)
	}
	if !bytes.Equal(p, want) {
		t.Fatal("recovered payload mismatch")
	}
}
