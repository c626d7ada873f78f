package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"astro/internal/campaign"
	"astro/internal/journal"
	"astro/internal/tablefmt"
)

// cmdJournal implements `astro journal replay [-store dir] <journal-dir>`:
// the kill -9 postmortem. It reads a coordinator's flight-recorder
// directory, replays every event through the journal state machine, and
// prints the reconstructed end state — queue counters, per-worker fleet
// view, and the cells that were still in flight when the log stopped.
//
// With -store it additionally cross-audits the log against the result
// store the dead coordinator wrote: every journaled completion must have
// its content key banked (completions are journaled only after the bytes
// reach the store, so a miss here means real loss, not an interrupted
// write). The audit failing is a non-zero exit.
func cmdJournal(args []string) error {
	if len(args) < 1 || args[0] != "replay" {
		return fmt.Errorf("usage: astro journal replay [-store dir] <journal-dir>")
	}
	fs := flag.NewFlagSet("journal replay", flag.ContinueOnError)
	storeDir := fs.String("store", "", "result-store directory to audit journaled completions against (opened in the layout it was created with, unbounded)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("journal replay takes one journal directory")
	}
	dir := fs.Arg(0)

	events, err := journal.ReadSince(dir, 0, 0)
	if err != nil {
		return fmt.Errorf("read journal %s: %w", dir, err)
	}
	if len(events) == 0 {
		return fmt.Errorf("journal %s holds no events", dir)
	}
	st := journal.Replay(events)
	fmt.Print(renderReplay(st))

	if *storeDir == "" {
		return nil
	}
	// Opened unbounded: an audit must never evict the evidence.
	store, err := campaign.NewStore(*storeDir)
	if err != nil {
		return err
	}
	banked, missing := auditStore(st, store)
	fmt.Printf("\nstore audit (%s): %d/%d journaled results banked\n", *storeDir, banked, banked+len(missing))
	if len(missing) > 0 {
		for _, k := range missing {
			fmt.Printf("  MISSING %s\n", k)
		}
		return fmt.Errorf("store audit failed: %d journaled completion(s) not banked", len(missing))
	}
	return nil
}

// auditStore checks every key the journal says completed (or banked
// late) against the store, returning the hit count and the sorted
// missing keys.
func auditStore(st *journal.State, store campaign.ResultStore) (banked int, missing []string) {
	keys := append(st.CompletedKeys(), st.BankedKeys()...)
	sort.Strings(keys)
	seen := ""
	for _, k := range keys {
		if k == seen {
			continue // a key can be both completed and late-banked
		}
		seen = k
		if _, ok := store.Get(k); ok {
			banked++
		} else {
			missing = append(missing, k)
		}
	}
	return banked, missing
}

// renderReplay formats a replayed journal state for the terminal.
func renderReplay(st *journal.State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "replayed %d events (last seq %d)\n\n", st.Events, st.LastSeq)

	qt := tablefmt.NewTable("pending", "leased", "done", "completes", "fails", "requeues", "rejects", "duplicates", "renewals")
	qt.Row(st.Pending, st.Leased, st.Done, st.Completes, st.Fails, st.Requeues, st.Rejects, st.Duplicates, st.Renewals)
	b.WriteString(qt.String())

	if len(st.Workers) > 0 {
		ids := make([]string, 0, len(st.Workers))
		for id := range st.Workers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		wt := tablefmt.NewTable("worker", "completed", "errors", "rejects", "state")
		for _, id := range ids {
			w := st.Workers[id]
			state := w.State
			if state == "" {
				state = "active"
			}
			wt.Row(id, w.Completed, w.Errors, w.Rejects, state)
		}
		b.WriteString("\n")
		b.WriteString(wt.String())
	}

	if inf := st.InFlight(); len(inf) > 0 {
		keys := make([]string, 0, len(inf))
		for k := range inf {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		it := tablefmt.NewTable("in-flight cell", "holder")
		for _, k := range keys {
			holder := inf[k]
			if holder == "" {
				holder = "(pending)"
			}
			it.Row(shortKey(k), holder)
		}
		b.WriteString("\n")
		b.WriteString(it.String())
	}
	return b.String()
}

// shortKey abbreviates a 64-char content key for table display.
func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12] + "…"
	}
	return k
}
