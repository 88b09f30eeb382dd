// Command pccheck-inspect dumps a checkpoint file's on-disk structures —
// superblock geometry, both pointer records, each slot's header (optionally
// verifying payload checksums), the keyframe→delta chain on delta-formatted
// devices, and any pending recovery cursor — without modifying anything.
// The ops tool for "what exactly is on this device?".
//
//	pccheck-inspect /mnt/ssd/ckpt.pcc
//	pccheck-inspect -verify /mnt/ssd/ckpt.pcc
//
// With multiple paths the arguments are read as durability tiers, fastest
// first (the layout CreateTieredFiles writes): each tier renders its own
// section, unreachable or corrupt tiers are reported and skipped, and a
// summary names the newest checkpoint reachable across tiers — what
// RecoverAny would restore.
//
//	pccheck-inspect /mnt/ssd/tier0.pcc /mnt/hdd/tier1.pcc
//
// With -post-mortem the tool reads the black-box telemetry region instead
// of the slot structures: the last flushed flight-recorder events, the
// final goodput report, and the policy decisions in that event tail,
// scored — what the process was doing when it died. -events bounds the printed event tail. With
// multiple paths the newest tier's black box wins (a wire replica can
// answer forensics after tier 0 vanished). Files created without
// Config.BlackBox report "no black box region" and exit 0.
//
//	pccheck-inspect -post-mortem /mnt/ssd/ckpt.pcc
//	pccheck-inspect -post-mortem -events 32 tier0.pcc tier1.pcc
//
// With -scrub the tool runs one offline integrity sweep per path instead of
// rendering: every committed structure (superblock, both pointer records,
// the published slot or keyframe→delta chain, the black-box header) is
// re-read and checksum-verified, repairable damage is rewritten in place,
// and a corrupt published payload with no intact sibling copy is
// quarantined so no future recovery can serve it. Cross-tier re-replication
// needs the live drainer, so each tier scrubs independently; RecoverAny
// afterwards still prefers the newest intact tier.
//
//	pccheck-inspect -scrub /mnt/ssd/ckpt.pcc
//	pccheck-inspect -scrub tier0.pcc tier1.pcc
//
// Exit status: 0 healthy, 1 read/decode failure, 2 usage, 3 the device
// renders but is unhealthy (a pointer record recovery rejects, or a
// published/chain payload fails its checksum). With multiple tiers, 3 means
// *no* tier holds a recoverable checkpoint — a stale-but-intact replica
// behind a dead primary is degraded durability, not an outage. With -scrub,
// 0 means clean or fully healed and 3 means damage survived the sweep.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"pccheck/internal/cliutil"
	"pccheck/internal/core"
	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/storage"
)

func main() {
	verify := flag.Bool("verify", false, "read payloads and validate checksums (slow for large slots)")
	postMortem := flag.Bool("post-mortem", false, "read the black-box telemetry region instead of the slot structures")
	eventTail := flag.Int("events", 16, "post-mortem: how many trailing events to print")
	scrub := flag.Bool("scrub", false, "run an offline integrity sweep: verify every committed structure, repair or quarantine damage")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: pccheck-inspect [-verify] [-scrub] [-post-mortem [-events N]] <checkpoint-file> [tier-1-file ...]")
		os.Exit(2)
	}
	if *postMortem {
		inspectPostMortem(flag.Args(), *eventTail)
		return
	}
	if *scrub {
		scrubPaths(flag.Args())
		return
	}
	if flag.NArg() == 1 {
		inspectSingle(flag.Arg(0), *verify)
		return
	}
	inspectTiers(flag.Args(), *verify)
}

// inspectPostMortem decodes the black box of the given file (or across
// tier files — newest telemetry wins, so a replica answers when tier 0
// is gone) and renders the forensic summary.
func inspectPostMortem(paths []string, eventTail int) {
	var devs []storage.Device
	for _, path := range paths {
		dev, err := storage.ReopenSSD(path)
		if err != nil {
			if len(paths) == 1 {
				fail("%v", err)
			}
			fmt.Fprintf(os.Stderr, "pccheck-inspect: %s: UNREACHABLE (%v)\n", path, err)
			continue
		}
		defer dev.Close()
		devs = append(devs, dev)
	}
	if len(devs) == 0 {
		fail("no tier could be opened")
	}
	pm, err := core.PostMortemTiered(devs...)
	if errors.Is(err, blackbox.ErrNoRegion) {
		// Pre-forensics image or BlackBox disabled: a clean answer, not an
		// error — there is simply nothing recorded to read back.
		fmt.Println("no black box region (file created without Config.BlackBox, or predates forensics)")
		return
	}
	if err != nil {
		fail("%v", err)
	}
	renderPostMortem(pm, eventTail)
}

func renderPostMortem(pm *blackbox.PostMortem, eventTail int) {
	fmt.Printf("black box: %d frame(s) survived, last seq %d, format epoch %d, %d × %s slots\n",
		len(pm.Frames), pm.LastSeq(), pm.Epoch, pm.Layout.Slots, cliutil.FormatBytes(pm.Layout.FrameBytes))
	if newest := pm.Newest(); newest != nil && newest.TS > 0 {
		fmt.Printf("last flush: %s\n", time.Unix(0, newest.TS).Format(time.RFC3339Nano))
	}

	events := pm.Events()
	if eventTail > 0 && len(events) > eventTail {
		events = events[len(events)-eventTail:]
	}
	fmt.Printf("\nlast %d event(s):\n", len(events))
	for _, ev := range events {
		line := fmt.Sprintf("  %s  %-11s", time.Unix(0, ev.TS).Format("15:04:05.000000"), ev.Phase)
		if ev.Dur > 0 {
			line += fmt.Sprintf("  %-12v", time.Duration(ev.Dur))
		} else {
			line += fmt.Sprintf("  %-12s", "-")
		}
		if ev.Counter != 0 {
			line += fmt.Sprintf("  ckpt %d", ev.Counter)
		}
		if ev.Slot >= 0 {
			line += fmt.Sprintf("  slot %d", ev.Slot)
		}
		if ev.Writer >= 0 {
			line += fmt.Sprintf("  writer %d", ev.Writer)
		}
		if ev.Bytes > 0 {
			line += "  " + cliutil.FormatBytes(ev.Bytes)
		}
		fmt.Println(line)
	}

	if rep, ok := pm.LastReport(); ok {
		fmt.Println("\nfinal goodput report:")
		obs.FormatReport(os.Stdout, rep)
	} else {
		fmt.Println("\nno goodput report captured (no ledger in the observer chain)")
	}

	if ds := obs.Decisions(pm.Events()); len(ds) > 0 {
		fmt.Println("\npolicy decisions in the event tail, scored:")
		cliutil.FormatDecisions(os.Stdout, ds, 0)
	}
}

// scrubPaths opens each path, runs one synchronous scrub sweep through the
// live engine's repair machinery, and reports every finding. A slot the
// sweep had to quarantine still exits 0 — the damage is contained and
// recovery falls back to an older intact checkpoint — whereas damage that
// could be neither repaired nor quarantined exits 3.
func scrubPaths(paths []string) {
	var unrepaired uint64
	opened := 0
	for i, path := range paths {
		label := path
		if len(paths) > 1 {
			label = fmt.Sprintf("tier %d (%s)", i, path)
		}
		dev, err := storage.ReopenSSD(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pccheck-inspect: %s: UNREACHABLE (%v)\n", label, err)
			continue
		}
		eng, err := core.Open(dev, core.Config{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pccheck-inspect: %s: UNREADABLE (%v)\n", label, err)
			dev.Close()
			unrepaired++
			continue
		}
		opened++
		found, healed, serr := eng.ScrubNow()
		st := eng.ScrubStatus()
		eng.Close()
		dev.Close()
		if serr != nil {
			fmt.Fprintf(os.Stderr, "pccheck-inspect: %s: scrub failed: %v\n", label, serr)
			unrepaired++
			continue
		}
		fmt.Printf("%s: scrubbed %s: %d corruption(s), %d healed (%d repaired, %d quarantined)\n",
			label, cliutil.FormatBytes(int64(st.BytesVerified)), found, healed, st.Repairs, st.Quarantines)
		for _, f := range st.Findings {
			fmt.Printf("  %s\n", f)
		}
		unrepaired += st.Unrepaired
	}
	if opened == 0 {
		fail("no path could be opened")
	}
	if unrepaired > 0 {
		fmt.Fprintf(os.Stderr, "pccheck-inspect: %d finding(s) could not be repaired or quarantined\n", unrepaired)
		os.Exit(3)
	}
}

func inspectSingle(path string, verify bool) {
	dev, err := storage.ReopenSSD(path)
	if err != nil {
		fail("%v", err)
	}
	defer dev.Close()
	rep, err := core.Inspect(dev, verify)
	if err != nil {
		fail("%v", err)
	}

	render(path, rep)
	if !rep.Healthy() {
		fmt.Fprintln(os.Stderr, "pccheck-inspect: device is UNHEALTHY (see above)")
		os.Exit(3)
	}
}

// inspectTiers renders each path as one durability tier and summarizes the
// newest checkpoint reachable across them. A tier that cannot be opened or
// decoded degrades the report, not the exit status — as long as one tier
// recovers, the checkpoint survives.
func inspectTiers(paths []string, verify bool) {
	type tierResult struct {
		recoverable bool
		counter     uint64
		healthy     bool
	}
	results := make([]tierResult, len(paths))
	for i, path := range paths {
		fmt.Printf("tier %d: ", i)
		dev, err := storage.ReopenSSD(path)
		if err != nil {
			fmt.Printf("%s: UNREACHABLE (%v)\n", path, err)
			continue
		}
		rep, err := core.Inspect(dev, verify)
		if err != nil {
			fmt.Printf("%s: UNREADABLE (%v)\n", path, err)
			dev.Close()
			continue
		}
		render(path, rep)
		dev.Close()
		results[i] = tierResult{
			recoverable: rep.Recoverable,
			counter:     rep.Latest.Counter,
			healthy:     rep.Healthy(),
		}
	}

	best := -1
	for i, r := range results {
		if r.recoverable && (best < 0 || r.counter > results[best].counter) {
			best = i
		}
	}
	if best < 0 {
		fmt.Println("newest reachable: none — no tier holds a recoverable checkpoint")
		os.Exit(3)
	}
	fmt.Printf("newest reachable: checkpoint %d at tier %d (%s)", results[best].counter, best, paths[best])
	for i, r := range results {
		if i != best && r.recoverable && r.counter < results[best].counter {
			fmt.Printf("; tier %d lags by %d checkpoint(s)", i, results[best].counter-r.counter)
		}
	}
	fmt.Println()
	for i, r := range results {
		if r.recoverable && !r.healthy {
			fmt.Fprintf(os.Stderr, "pccheck-inspect: tier %d (%s) is UNHEALTHY (see above)\n", i, paths[i])
		}
	}
}

func render(path string, rep core.Report) {
	mode := ""
	if rep.DeltaKeyframe > 0 {
		mode = fmt.Sprintf(", delta mode K=%d", rep.DeltaKeyframe)
	}
	fmt.Printf("%s: %d slots × %s (N = %d concurrent checkpoints, format epoch %d%s)\n",
		path, rep.Slots, cliutil.FormatBytes(rep.SlotBytes), rep.Slots-1-rep.DeltaKeyframe, rep.Epoch, mode)

	for i, r := range rep.Records {
		name := string(rune('A' + i))
		if !r.Valid {
			fmt.Printf("  record %s: empty/invalid\n", name)
			continue
		}
		fmt.Printf("  record %s: checkpoint %d → slot %d (%s)\n", name, r.Counter, r.Slot, cliutil.FormatBytes(r.Size))
	}
	if rep.Recoverable {
		logical := ""
		if rep.LatestFullSize != rep.Latest.Size {
			logical = fmt.Sprintf(", %s reconstructed", cliutil.FormatBytes(rep.LatestFullSize))
		}
		fmt.Printf("  recoverable: checkpoint %d in slot %d (%s%s)\n",
			rep.Latest.Counter, rep.Latest.Slot, cliutil.FormatBytes(rep.Latest.Size), logical)
	} else {
		fmt.Println("  recoverable: none")
		if rep.Records[0].Valid || rep.Records[1].Valid {
			fmt.Println("  WARNING: a pointer record claims a checkpoint recovery cannot serve")
		}
	}
	if len(rep.Chain) > 0 {
		fmt.Printf("  chain: %d link(s), keyframe %d", len(rep.Chain), rep.Chain[0].Counter)
		for _, l := range rep.Chain[1:] {
			fmt.Printf(" → +%d", l.Counter)
		}
		fmt.Println()
	}
	for _, s := range rep.SlotInfos {
		status := "empty/invalid header"
		if s.Quarantined {
			status = fmt.Sprintf("QUARANTINED (checkpoint %d tombstoned by the scrubber; recovery skips it)", s.Counter)
		} else if s.HeaderValid {
			status = fmt.Sprintf("checkpoint %d, %s", s.Counter, cliutil.FormatBytes(s.Size))
			if s.Kind == 1 {
				status += fmt.Sprintf(", delta base=%d (%s full)", s.BaseCounter, cliutil.FormatBytes(s.FullSize))
			} else if rep.DeltaKeyframe > 0 {
				status += ", keyframe"
			}
			if s.EpochStale {
				status += fmt.Sprintf(", STALE (format epoch %d)", s.Epoch)
			}
			if s.HasChecksum {
				switch {
				case s.PayloadOK == nil:
					status += ", checksummed"
				case *s.PayloadOK:
					status += ", payload OK"
				default:
					status += ", PAYLOAD CORRUPT"
				}
			}
		}
		marker := " "
		if s.InChain {
			marker = "+"
		}
		if s.Published {
			marker = "*"
		}
		fmt.Printf("  %s slot %d: %s\n", marker, s.Index, status)
	}
	if rep.Cursor != nil {
		fmt.Printf("  pending restore: checkpoint %d at byte %d\n", rep.Cursor.Counter, rep.Cursor.Position)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pccheck-inspect: "+format+"\n", args...)
	os.Exit(1)
}
