package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestPlanGolden pins the planner's analytic output, digit for digit.
func TestPlanGolden(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"opt-1.3b", "-model OPT-1.3B -mtbf 8m"},
		{"bloom-7b", "-model BLOOM-7B -mtbf 45m -overhead 1.03"},
		{"custom", "-size 16GB -iter 650ms -mtbf 8m"},
		{"vgg16-pmem", "-model VGG16 -platform rtx-pmem -mtbf 30m -n 4 -writers 2"},
		{"opt-350m-h100", "-model OPT-350M -platform h100-azure-nvme -mtbf 2h -overhead 1.2 -max-interval 40"},
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
				t.Errorf("pccheck-plan %s:\n%s\nwant:\n%s", tc.args, got.String(), want)
			}
		})
	}
}

// An overhead budget q ≤ 1 has no f*: the planner must fail, not print
// the table without the Eq. (3) line.
func TestPlanRejectsBudgetAtMostOne(t *testing.T) {
	for _, q := range []string{"1.0", "0.5"} {
		var out bytes.Buffer
		err := run(&out, []string{"-model", "OPT-1.3B", "-mtbf", "8m", "-overhead", q})
		if err == nil || !strings.Contains(err.Error(), "must be > 1") {
			t.Errorf("-overhead %s: err = %v, want the q > 1 error", q, err)
		}
		if out.Len() != 0 {
			t.Errorf("-overhead %s printed %q before failing", q, out.String())
		}
	}
}
