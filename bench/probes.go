package main

// Layer probes. Each layer's measurement is a round: one pass of that
// layer's public functions over inputs built beforehand, returning the
// time of the calls it measures and the units of work they did (words,
// base instructions, groups, pages). The traced run repeats each round
// for a fixed time (probe); layers_test.go runs the same rounds b.N times
// under `go test -bench Layer`, so both report the same definition. The
// ppc, core, vliw and txcache rounds cover every code page of every
// program under the default translator options, so they read the same on
// every workload; the interp and telemetry probes run the workload's own
// jobs.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/telemetry"
	"daisy/internal/txcache"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
)

// defaultProbeTime is the minimum measured time of each probe. The interp
// and telemetry probes run whole jobs and get jobProbeFactor times more.
const (
	defaultProbeTime = 150 * time.Millisecond
	jobProbeFactor   = 5
)

// probeMemSize is enough to hold every program's code; the translator
// reads nothing else.
const probeMemSize = 1 << 20

// round does one round of a layer's work and returns the time of the part
// it measures and the units of work in it. Setup outside that part is not
// counted.
type round func() (time.Duration, uint64, error)

// probe runs r until at least d has passed, at least once, and returns
// the measured nanoseconds per unit.
func probe(d time.Duration, r round) (float64, error) {
	var el time.Duration
	var units uint64
	for start, n := time.Now(), 0; n == 0 || time.Since(start) < d; n++ {
		t, u, err := r()
		if err != nil {
			return 0, err
		}
		el, units = el+t, units+u
	}
	if units == 0 {
		return 0, errors.New("probe: a round did no work")
	}
	return float64(el) / float64(units), nil
}

// repeat calls f until at least d has passed, at least once.
func repeat(d time.Duration, f func()) {
	for start, n := time.Now(), 0; n == 0 || time.Since(start) < d; n++ {
		f()
	}
}

// timeCall returns f's wall time and the units it reports.
func timeCall(units int, f func() error) (time.Duration, uint64, error) {
	start := time.Now()
	err := f()
	return time.Since(start), uint64(units), err
}

// sortedPrograms lists the programs in name order, so probes walk them in
// the same order on every run.
func sortedPrograms(progs map[string]*program) []*program {
	var ps []*program
	for _, p := range progs {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].name < ps[j].name })
	return ps
}

// codePage is one program page with its translation entry point: the
// program entry when it lies in the page, else the page base (as
// daisy.Precompile chooses).
type codePage struct {
	mem   *mem.Memory
	entry uint32
}

// translated is one page translation kept for the vliw and txcache rounds.
type translated struct {
	key    txcache.Key
	groups []*vliw.Group
}

// layerInputs is what the ppc, core and vliw rounds work on, built once:
// every word and page of every program, and one translation of each page.
type layerInputs struct {
	words  []uint32
	pages  []codePage
	topt   core.Options
	stats  core.Stats // of one translateAll
	trs    []translated
	groups []*vliw.Group
	codes  [][]byte // groups, encoded
}

func newLayerInputs(progs map[string]*program) (*layerInputs, error) {
	in := &layerInputs{topt: vmm.DefaultOptions().Trans}
	for _, p := range sortedPrograms(progs) {
		m := mem.New(probeMemSize)
		if err := p.prog.Load(m); err != nil {
			return nil, err
		}
		seen := map[uint32]bool{}
		for _, c := range p.prog.Chunks {
			for i := 0; i+4 <= len(c.Data); i += 4 {
				in.words = append(in.words, uint32(c.Data[i])<<24|uint32(c.Data[i+1])<<16|uint32(c.Data[i+2])<<8|uint32(c.Data[i+3]))
			}
			size := in.topt.PageSize
			end := c.Addr + uint32(len(c.Data))
			for base := c.Addr &^ (size - 1); base < end; base += size {
				if seen[base] {
					continue
				}
				seen[base] = true
				e := base
				if entry := p.prog.Entry(); entry >= base && entry < base+size {
					e = entry
				}
				in.pages = append(in.pages, codePage{m, e})
			}
		}
	}
	in.stats, _, in.trs = in.translateAll()
	if len(in.trs) == 0 {
		return nil, errors.New("probe: no page translated")
	}
	for _, tr := range in.trs {
		in.groups = append(in.groups, tr.groups...)
	}
	var err error
	in.codes, err = encodeAll(in.groups)
	return in, err
}

// translateAll translates every page with a fresh translator, as the VMM
// does, and returns the summed translator stats, the time spent in
// TranslatePage and one translation per distinct txcache key (programs
// share the runtime page). Pages that do not translate (data) are skipped.
func (in *layerInputs) translateAll() (core.Stats, time.Duration, []translated) {
	var st core.Stats
	var el time.Duration
	var out []translated
	seen := map[txcache.Key]bool{}
	for _, pg := range in.pages {
		t := core.New(pg.mem, in.topt)
		start := time.Now()
		pt, err := t.TranslatePage(pg.entry)
		el += time.Since(start)
		if err != nil {
			continue
		}
		st = st.Add(t.Stats)
		tr := translated{key: txcache.Key{PageBase: pt.Base, OptFP: txcache.Fingerprint("bench-probe"),
			Digest: sha256.Sum256(pg.mem.Bytes(pt.Base, in.topt.PageSize))}}
		if seen[tr.key] {
			continue
		}
		seen[tr.key] = true
		for _, e := range pt.Order {
			tr.groups = append(tr.groups, pt.Groups[e])
		}
		out = append(out, tr)
	}
	return st, el, out
}

// decodeSink keeps the decode loop from being optimized away.
var decodeSink ppc.Opcode

// decode is the ppc round: ppc.Decode of every word, per word.
func (in *layerInputs) decode() (time.Duration, uint64, error) {
	return timeCall(len(in.words), func() error {
		for _, w := range in.words {
			decodeSink ^= ppc.Decode(w).Op
		}
		return nil
	})
}

// translate is the core round: TranslatePage of every page, per base
// instruction.
func (in *layerInputs) translate() (time.Duration, uint64, error) {
	st, el, _ := in.translateAll()
	return el, st.BaseInsts, nil
}

func encodeAll(groups []*vliw.Group) ([][]byte, error) {
	codes := make([][]byte, len(groups))
	for i, g := range groups {
		var err error
		if codes[i], err = vliw.EncodeGroup(g); err != nil {
			return nil, fmt.Errorf("probe: encode: %w", err)
		}
	}
	return codes, nil
}

// encode, decodeGroups and clone are the vliw rounds, per group.
func (in *layerInputs) encode() (time.Duration, uint64, error) {
	return timeCall(len(in.groups), func() error {
		_, err := encodeAll(in.groups)
		return err
	})
}

func (in *layerInputs) decodeGroups() (time.Duration, uint64, error) {
	return timeCall(len(in.codes), func() error {
		for _, c := range in.codes {
			if _, err := vliw.DecodeGroup(c); err != nil {
				return fmt.Errorf("probe: decode: %w", err)
			}
		}
		return nil
	})
}

func (in *layerInputs) clone() (time.Duration, uint64, error) {
	return timeCall(len(in.groups), func() error {
		for _, g := range in.groups {
			vliw.CloneGroup(g)
		}
		return nil
	})
}

// txcacheProbe holds the stores the txcache rounds work on, all under dir.
type txcacheProbe struct {
	trs          []translated
	dir          string
	full         string         // every translation saved here
	hot          *txcache.Store // over full, every entry in the hot tier
	saveDir      string         // emptied before each save round
	bytesPerPage float64        // stored (compressed) bytes per saved page
}

func newTxcacheProbe(trs []translated, dir string) (*txcacheProbe, error) {
	p := &txcacheProbe{trs: trs, dir: dir, full: filepath.Join(dir, "full"), saveDir: filepath.Join(dir, "save")}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	var err error
	if p.hot, err = txcache.Open(p.full); err != nil {
		return nil, err
	}
	for _, tr := range trs {
		if _, err := p.hot.Save(tr.key, tr.groups); err != nil {
			return nil, err
		}
		if _, ok := p.hot.Load(tr.key); !ok { // promotes into the hot tier
			return nil, fmt.Errorf("probe: txcache load of page %#x missed", tr.key.PageBase)
		}
	}
	st := p.hot.Stats()
	p.bytesPerPage = ratio(st.BytesStored, st.Stores)
	return p, nil
}

func (p *txcacheProbe) close() error { return os.RemoveAll(p.dir) }

// save is a round of Save of every translation into a fresh store, per page.
func (p *txcacheProbe) save() (time.Duration, uint64, error) {
	if err := os.RemoveAll(p.saveDir); err != nil {
		return 0, 0, err
	}
	s, err := txcache.Open(p.saveDir)
	if err != nil {
		return 0, 0, err
	}
	return timeCall(len(p.trs), func() error {
		for _, tr := range p.trs {
			if _, err := s.Save(tr.key, tr.groups); err != nil {
				return err
			}
		}
		return nil
	})
}

// loadAll is a round of Load of every translation from s, per page.
func (p *txcacheProbe) loadAll(s *txcache.Store) (time.Duration, uint64, error) {
	return timeCall(len(p.trs), func() error {
		for _, tr := range p.trs {
			if _, ok := s.Load(tr.key); !ok {
				return fmt.Errorf("probe: txcache load of page %#x missed", tr.key.PageBase)
			}
		}
		return nil
	})
}

// loadDisk is a round of first Loads on a fresh Store over the saved
// directory: a file read, decompression and decode each.
func (p *txcacheProbe) loadDisk() (time.Duration, uint64, error) {
	s, err := txcache.Open(p.full)
	if err != nil {
		return 0, 0, err
	}
	return p.loadAll(s)
}

// loadHot is a round of Loads served by the hot tier: one clone each.
func (p *txcacheProbe) loadHot() (time.Duration, uint64, error) { return p.loadAll(p.hot) }

// interpRound runs the jobs in turn on the reference interpreter, one job
// per round, per base instruction. Each run gets a copy of its program's
// loaded image, made outside the timer; only interp.New and Run are timed,
// and the run must match the reference.
func interpRound(jobs []*job) (round, error) {
	images := map[*program]*mem.Memory{}
	for _, j := range jobs {
		if images[j.prog] == nil {
			m := mem.New(memSize)
			if err := j.prog.prog.Load(m); err != nil {
				return nil, err
			}
			images[j.prog] = m
		}
	}
	next := 0
	return func() (time.Duration, uint64, error) {
		j := jobs[next%len(jobs)]
		next++
		m := images[j.prog].Clone()
		env := &interp.Env{In: j.input}
		start := time.Now()
		ip := interp.New(m, env, j.prog.prog.Entry())
		err := ip.Run(budgetFor(j))
		el := time.Since(start)
		if !errors.Is(err, interp.ErrHalt) || ip.InstCount != j.insts || !bytes.Equal(env.Out, j.want) {
			return 0, 0, fmt.Errorf("probe: interpreter run of a %s job disagrees with the reference (%v)", j.prog.name, err)
		}
		return el, ip.InstCount, nil
	}, nil
}

// probeResult holds every probe's number.
type probeResult struct {
	decodeNsPerWord                 float64
	translateNsPerInst, workPerInst float64
	codeBytesPerInst                float64
	encodeUs, decodeUs, cloneUs     float64
	saveUs, loadDiskUs, loadHotUs   float64
	storedBytesPerPage              float64
	interpNsPerInst, telemetryPct   float64
}

func runProbes(jobs []*job, progs map[string]*program, opt vmm.Options, cfg config, dir string) (probeResult, error) {
	var p probeResult
	d := cfg.probeTime
	var in *layerInputs
	var tx *txcacheProbe
	// into runs r for d and stores its nanoseconds per unit, scaled by
	// scale, in *v.
	into := func(v *float64, d time.Duration, scale float64, r round) error {
		ns, err := probe(d, r)
		*v = ns / scale
		return err
	}
	const us = 1000
	probes := []struct {
		name string
		run  func() error
	}{
		{"probe.setup", func() (err error) {
			if in, err = newLayerInputs(progs); err != nil {
				return err
			}
			p.workPerInst = ratio(in.stats.WorkUnits, in.stats.BaseInsts)
			p.codeBytesPerInst = ratio(in.stats.CodeBytes, in.stats.BaseInsts)
			if tx, err = newTxcacheProbe(in.trs, filepath.Join(dir, "probe-txcache")); err != nil {
				return err
			}
			p.storedBytesPerPage = tx.bytesPerPage
			return nil
		}},
		{"probe.ppc.decode", func() error { return into(&p.decodeNsPerWord, d, 1, in.decode) }},
		{"probe.core.translate", func() error { return into(&p.translateNsPerInst, d, 1, in.translate) }},
		{"probe.vliw.encode", func() error { return into(&p.encodeUs, d, us, in.encode) }},
		{"probe.vliw.decode", func() error { return into(&p.decodeUs, d, us, in.decodeGroups) }},
		{"probe.vliw.clone", func() error { return into(&p.cloneUs, d, us, in.clone) }},
		{"probe.txcache.save", func() error { return into(&p.saveUs, d, us, tx.save) }},
		{"probe.txcache.load_disk", func() error { return into(&p.loadDiskUs, d, us, tx.loadDisk) }},
		{"probe.txcache.load_hot", func() error { return into(&p.loadHotUs, d, us, tx.loadHot) }},
		{"probe.interp", func() error {
			r, err := interpRound(jobs)
			if err != nil {
				return err
			}
			return into(&p.interpNsPerInst, jobProbeFactor*d, 1, r)
		}},
		{"probe.telemetry", func() (err error) {
			p.telemetryPct, err = probeTelemetry(jobs, opt, jobProbeFactor*d)
			return err
		}},
	}
	defer func() {
		if tx != nil {
			tx.close()
		}
	}()
	for _, pr := range probes {
		start := time.Now()
		err := pr.run()
		cfg.spans.add(pr.name, tidProbes, start, time.Since(start), nil)
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// probeTelemetry runs the workload's jobs in pairs, bare and with
// telemetry attached at its default options, alternating which runs
// first, and returns the median over pairs of the attached run's extra
// time in percent.
func probeTelemetry(jobs []*job, opt vmm.Options, d time.Duration) (float64, error) {
	var extra []float64
	var ferr error
	next := 0
	repeat(d, func() {
		j := jobs[next%len(jobs)]
		var bare, attached time.Duration
		for k := 0; k < 2; k++ {
			var tel *telemetry.Telemetry
			if (next+k)%2 == 1 {
				tel = telemetry.New(telemetry.DefaultOptions())
			}
			wall, ma, out, err := runJob(j, opt, tel)
			if err := check(j, ma, out, err); err != nil {
				ferr = fmt.Errorf("probe: telemetry run of a %s job: %w", j.prog.name, err)
			}
			if tel != nil {
				attached = wall
			} else {
				bare = wall
			}
		}
		if bare > 0 {
			extra = append(extra, 100*(float64(attached)/float64(bare)-1))
		}
		next++
	})
	return quantile(extra, 0.5), ferr
}
