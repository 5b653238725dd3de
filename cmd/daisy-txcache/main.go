// daisy-txcache maintains a persistent translation-cache directory (the
// store behind MachineOptions.Cache). The cache is crash-safe by design —
// a running machine treats every damaged or oversized entry as a counted
// miss — so none of these commands is ever required for correctness; they
// exist to inspect a directory, reclaim space, and clean up the debris
// (torn writes, orphaned temp files, foreign-version entries) that
// crashes and translator upgrades leave behind.
//
// Usage:
//
//	daisy-txcache stat -dir DIR [-deep]         # entry count, compression, health summary
//	daisy-txcache fsck -dir DIR [-repair]       # validate every entry; -repair deletes bad ones
//	daisy-txcache gc   -dir DIR -max-bytes N    # shrink to N bytes, removing the oldest writes first
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"daisy/internal/txcache"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "stat":
		err = runStat(args)
	case "fsck":
		err = runFsck(args)
	case "gc":
		err = runGC(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "daisy-txcache: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daisy-txcache:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  daisy-txcache stat -dir DIR [-deep]        # entry count, compression, health; -deep adds per-tier service
  daisy-txcache fsck -dir DIR [-repair]      # validate every entry against the Load path
  daisy-txcache gc   -dir DIR -max-bytes N   # shrink to N bytes, removing the oldest writes first`)
}

// open validates and opens the cache directory. Unlike a machine run —
// which must shrug off a missing or unwritable directory — a maintenance
// tool pointed at a directory that does not exist should say so, not
// create an empty cache and report it healthy.
func open(dir string) (*txcache.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir is required")
	}
	info, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("%s: not a directory", dir)
	}
	return txcache.Open(dir)
}

func runStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory")
	deep := fs.Bool("deep", false, "load every entry to measure per-tier service (decodes the whole store)")
	fs.Parse(args)
	s, err := open(*dir)
	if err != nil {
		return err
	}
	ents, err := os.ReadDir(*dir)
	if err != nil {
		return err
	}
	var tmp, other int
	for _, e := range ents {
		switch filepath.Ext(e.Name()) {
		case ".dtx", "":
		case ".tmp":
			tmp++
		default:
			other++
		}
	}
	u := s.Usage()
	fmt.Printf("%s: %d entries, %d bytes on disk\n", *dir, u.Entries, u.PayloadSize)
	fmt.Printf("  bodies: %d raw -> %d stored bytes (ratio %.2fx, %d/%d entries compressed)\n",
		u.RawSize, u.StoredSize, u.Ratio(), u.Compressed, u.Entries)
	if u.Short > 0 {
		fmt.Printf("  %d entry(ies) too short to carry a header (fsck -repair removes them)\n", u.Short)
	}
	if tmp > 0 {
		fmt.Printf("  %d orphaned .tmp file(s) from interrupted writes (fsck -repair removes them)\n", tmp)
	}
	if other > 0 {
		fmt.Printf("  %d unrelated file(s) (ignored by the cache)\n", other)
	}
	if *deep {
		// Load the whole store twice: the first pass decodes from disk and
		// promotes into the in-memory hot tier, the second shows what the
		// tier then absorbs — the per-tier split a warm fleet machine sees.
		for pass := 0; pass < 2; pass++ {
			for _, e := range ents {
				if k, ok := txcache.ParseName(e.Name()); ok {
					s.Load(k)
				}
			}
		}
		st := s.Stats()
		hotN, hotBytes := s.HotTier()
		fmt.Printf("  deep: hot tier holds %d entries, %d decoded bytes (bound permitting)\n", hotN, hotBytes)
		fmt.Printf("  deep: %d loads: %d hot / %d disk; served %d bytes hot, %d disk; %d decodes\n",
			st.Hits, st.HotHits, st.Hits-st.HotHits,
			st.BytesServedHot, st.BytesServedDisk, st.Decodes)
		if st.Misses > 0 {
			fmt.Printf("  deep: %d misses (%d absent, %d corrupt, %d skew, %d options)\n",
				st.Misses, st.Absent, st.Corrupt, st.VersionSkew, st.OptionsMismatch)
		}
	}
	return nil
}

func runFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory")
	repair := fs.Bool("repair", false, "delete invalid entries and orphaned temp files")
	fs.Parse(args)
	s, err := open(*dir)
	if err != nil {
		return err
	}
	rep := s.Fsck(*repair)
	fmt.Println(rep)
	if rep.Bad() && !*repair {
		return fmt.Errorf("store has invalid entries (rerun with -repair to delete them)")
	}
	return nil
}

func runGC(args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory")
	maxBytes := fs.Int64("max-bytes", -1, "shrink the store to at most this many payload bytes")
	fs.Parse(args)
	if *maxBytes < 0 {
		return fmt.Errorf("-max-bytes is required")
	}
	s, err := open(*dir)
	if err != nil {
		return err
	}
	removed, freed, err := s.GC(*maxBytes)
	if err != nil {
		return err
	}
	fmt.Printf("%s: removed %d entries, freed %d bytes\n", *dir, removed, freed)
	return nil
}
