package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestTuneGolden pins the analytic mode's output, digit for digit.
func TestTuneGolden(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"opt-1.3b", "-platform a100-gcp-ssd -model OPT-1.3B"},
		{"bert-pmem", "-platform rtx-pmem -model BERT -overhead 1.02"},
		{"opt-2.7b-h100", "-platform h100-azure-nvme -model OPT-2.7B -storage 100GB"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + tc.golden + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, strings.Fields(tc.args)); err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("pccheck-tune %s:\n%s\nwant:\n%s", tc.args, got.String(), want)
			}
		})
	}
}
