package workload

import (
	"testing"
	"time"
)

func TestZooMatchesTable3(t *testing.T) {
	// Checkpoint sizes straight from Table 3 of the paper.
	want := map[string]int64{
		"VGG16":         1_100_000_000,
		"BERT":          4 * GB,
		"TransformerXL": 2_700_000_000,
		"OPT-1.3B":      16_200_000_000,
		"OPT-2.7B":      45 * GB,
		"BLOOM-7B":      108 * GB,
	}
	for name, size := range want {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("Table 3 model missing: %v", err)
		}
		if m.CheckpointBytes != size {
			t.Fatalf("%s checkpoint = %d, want %d", name, m.CheckpointBytes, size)
		}
	}
}

func TestBatchSizesMatchTable3(t *testing.T) {
	checks := []struct {
		name       string
		a100, rtx  int
		hasRTXTime bool
	}{
		{"VGG16", 32, 32, true},
		{"BERT", 3, 3, true},
		{"TransformerXL", 64, 32, true},
		{"OPT-1.3B", 1, 0, false},
	}
	for _, c := range checks {
		m, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if m.BatchA100 != c.a100 || m.BatchRTX != c.rtx {
			t.Fatalf("%s batches = %d/%d, want %d/%d", c.name, m.BatchA100, m.BatchRTX, c.a100, c.rtx)
		}
		if (m.IterTimeRTX > 0) != c.hasRTXTime {
			t.Fatalf("%s RTX availability wrong", c.name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("GPT-5"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestPlatformByName(t *testing.T) {
	for _, name := range []string{"a100-gcp-ssd", "rtx-pmem", "h100-azure-nvme"} {
		p, err := PlatformByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("PlatformByName(%q): %v", name, err)
		}
	}
	if _, err := PlatformByName("tpu-v9"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestDistributedPartitioning(t *testing.T) {
	bloom, _ := ByName("BLOOM-7B")
	if bloom.Nodes != 6 {
		t.Fatalf("BLOOM-7B nodes = %d, want 6", bloom.Nodes)
	}
	if got := bloom.PartitionBytes(); got != 18*GB {
		t.Fatalf("BLOOM-7B partition = %d, want 18 GB", got)
	}
	opt27, _ := ByName("OPT-2.7B")
	if opt27.Nodes != 2 || opt27.PartitionBytes() != 22_500_000_000 {
		t.Fatalf("OPT-2.7B partition = %d over %d nodes", opt27.PartitionBytes(), opt27.Nodes)
	}
	vgg, _ := ByName("VGG16")
	if vgg.PartitionBytes() != vgg.CheckpointBytes {
		t.Fatal("single-node partition should equal full checkpoint")
	}
}

func TestPlatformCalibration(t *testing.T) {
	// The paper's datum: 16 GB of OPT-1.3B state takes 37 s with torch.save
	// ⇒ the single-stream rate must land near 0.44 GB/s.
	persistTime := 16.2 * GB / (CheckFreqStreamFraction * A100GCP.StorageWriteBW)
	if persistTime < 33 || persistTime > 41 {
		t.Fatalf("OPT-1.3B persist time = %.1fs, paper says ≈37s", persistTime)
	}
	// PMEM nt-store bandwidth is the paper's measured 4.01 GB/s.
	if RTXPMEM.StorageWriteBW != 4.01*GB {
		t.Fatalf("PMEM write BW = %v", RTXPMEM.StorageWriteBW)
	}
	if PMEMCLWBWriteBW != 2.46*GB {
		t.Fatalf("clwb BW = %v", float64(PMEMCLWBWriteBW))
	}
	// Gemini's network: 15 Gbps.
	if A100GCP.NetBW != 1.875*GB {
		t.Fatalf("net BW = %v", A100GCP.NetBW)
	}
}

func TestH100ScalesFromA100(t *testing.T) {
	if H100Azure.StorageWriteBW != 2*A100GCP.StorageWriteBW {
		t.Fatal("H100 disk should be 2× A100 disk (§5.2.1)")
	}
	opt, _ := ByName("OPT-1.3B")
	a := opt.IterTimeOn(A100GCP)
	h := opt.IterTimeOn(H100Azure)
	if h != a/2 {
		t.Fatalf("H100 iteration %v, want half of %v", h, a)
	}
}

func TestIterTimeOnRTX(t *testing.T) {
	bert, _ := ByName("BERT")
	if got := bert.IterTimeOn(RTXPMEM); got != 320*time.Millisecond {
		t.Fatalf("BERT on RTX = %v", got)
	}
	bloom, _ := ByName("BLOOM-7B")
	if got := bloom.IterTimeOn(RTXPMEM); got != 0 {
		t.Fatalf("BLOOM-7B should not fit on RTX, got %v", got)
	}
}

func TestVGGIterationMatchesPaper(t *testing.T) {
	vgg, _ := ByName("VGG16")
	// §5.2.3: "VGG16 has the smallest iteration time (60 ms)".
	if vgg.IterTime != 60*time.Millisecond {
		t.Fatalf("VGG16 iteration = %v, want 60ms", vgg.IterTime)
	}
}

func TestPerThreadBandwidthNeedsFewThreads(t *testing.T) {
	// §3.4: 2–4 writer threads should saturate the device.
	for _, p := range []Platform{A100GCP, RTXPMEM, H100Azure} {
		threads := p.StorageWriteBW / p.PerThreadWriteBW
		if threads < 2 || threads > 4 {
			t.Fatalf("%s: %0.1f threads to saturate, want 2–4", p.Name, threads)
		}
	}
}

// Checkpoint sizes are consistent with the training state they must hold:
// fp32 parameters plus optimizer state — ≈8 B/param for SGD+momentum
// (VGG16) and ≈12 B/param for Adam (BERT, OPT) — with tokenizer/embedding
// overheads explaining the remainder.
func TestCheckpointSizesMatchOptimizerState(t *testing.T) {
	checks := []struct {
		model         string
		bytesPerParam float64
		tolerance     float64
	}{
		{"VGG16", 8, 0.15}, // SGD + momentum: weights + velocity
		{"BERT", 12, 0.15}, // Adam: weights + m + v
		{"OPT-1.3B", 12, 0.15},
		{"OPT-2.7B", 12, 0.40}, // larger slack: activations/offload buffers
		{"BLOOM-7B", 12, 0.40},
	}
	for _, c := range checks {
		m, err := ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(m.CheckpointBytes) / float64(m.Params)
		if got < c.bytesPerParam*(1-c.tolerance) || got > c.bytesPerParam*(1+c.tolerance) {
			t.Fatalf("%s: %.1f bytes/param, want ≈%.0f", c.model, got, c.bytesPerParam)
		}
	}
}
