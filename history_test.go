package pccheck

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.pcar")
	h, err := OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[uint64][]byte{}
	for c := uint64(1); c <= 4; c++ {
		p := randomPayload(int64(c), 256)
		payloads[c] = p
		if err := h.Append(c, p); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 4 {
		t.Fatalf("Len = %d", h.Len())
	}
	for _, e := range h.List() {
		got, err := h.Load(e.Counter)
		if err != nil || !bytes.Equal(got, payloads[e.Counter]) {
			t.Fatalf("entry %d: %v", e.Counter, err)
		}
	}
	if err := h.Compact(2); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("Len after compact = %d", h.Len())
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Survives reopen.
	h2, err := OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h2.Len() != 2 {
		t.Fatalf("reopened Len = %d", h2.Len())
	}
}

// The History composes with the Checkpointer: every published checkpoint
// teed into the archive remains loadable even after the engine has
// overwritten its slot.
func TestHistoryWithCheckpointer(t *testing.T) {
	dir := t.TempDir()
	ck, err := Create(filepath.Join(dir, "ckpt.pcc"), Config{MaxBytes: 1024, Concurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	h, err := OpenHistory(filepath.Join(dir, "hist.pcar"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	var payloads [][]byte
	for i := 0; i < 6; i++ {
		p := randomPayload(int64(i), 500)
		payloads = append(payloads, p)
		counter, err := ck.Save(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Append(counter, p); err != nil {
			t.Fatal(err)
		}
	}
	// The engine's two slots only retain the newest checkpoint; the
	// archive retains all six.
	for c := uint64(1); c <= 6; c++ {
		got, err := h.Load(c)
		if err != nil || !bytes.Equal(got, payloads[c-1]) {
			t.Fatalf("history entry %d: %v", c, err)
		}
	}
}

func TestRecoveryStreamFull(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.pcc")
	ck, err := Create(path, Config{MaxBytes: 64 << 10, Concurrent: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	want := randomPayload(3, 64<<10)
	if _, err := ck.Save(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenRecoveryStream(path, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 64<<10 || s.Counter() != 1 {
		t.Fatalf("stream geometry: %d/%d", s.Size(), s.Counter())
	}
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed restore mismatch")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// A payload damaged on disk must surface from Read as a corrupt-classified
// error, never as a clean io.EOF after the damaged bytes.
func TestRecoveryStreamSurfacesCorruptPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.pcc")
	ck, err := Create(path, Config{MaxBytes: 64 << 10, Concurrent: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	want := randomPayload(4, 64<<10)
	if _, err := ck.Save(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(image, want[1000:1064])
	if at < 0 {
		t.Fatal("payload not found in the checkpoint file")
	}
	image[at] ^= 0x40
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenRecoveryStream(path, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := io.ReadAll(s); !IsCorrupt(err) {
		t.Fatalf("ReadAll over a damaged payload: %v, want a corrupt-classified error", err)
	}
}

func TestRecoveryStreamResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.pcc")
	ck, err := Create(path, Config{MaxBytes: 40 << 10, Concurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := randomPayload(4, 40<<10)
	if _, err := ck.Save(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// First attempt restores a quarter, then "crashes" (Close without
	// completing keeps the cursor).
	s1, err := OpenRecoveryStream(path, 5<<10)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 10<<10)
	if _, err := io.ReadFull(s1, head); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second attempt resumes past the restored prefix.
	s2, err := OpenRecoveryStream(path, 5<<10)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Position() != 10<<10 {
		t.Fatalf("resumed at %d, want %d", s2.Position(), 10<<10)
	}
	rest, err := io.ReadAll(s2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := append(head, rest...); !bytes.Equal(got, want) {
		t.Fatal("resumed restore mismatch")
	}

	// Completed restore cleared the cursor: a third stream starts fresh.
	s3, err := OpenRecoveryStream(path, 5<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Position() != 0 {
		t.Fatalf("cursor not cleared: %d", s3.Position())
	}
	// Restart also rewinds mid-flight.
	chunk := make([]byte, 5<<10)
	if _, err := s3.Read(chunk); err != nil {
		t.Fatal(err)
	}
	if err := s3.Restart(); err != nil {
		t.Fatal(err)
	}
	if s3.Position() != 0 {
		t.Fatalf("Restart left position %d", s3.Position())
	}
}

func TestRecoveryStreamEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.pcc")
	ck, err := Create(path, Config{MaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRecoveryStream(path, 0); !IsNoCheckpoint(err) {
		t.Fatalf("err = %v", err)
	}
}
