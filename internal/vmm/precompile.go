package vmm

// Whole-binary pre-translation ("AOT warm-up"). A fleet bringing up many
// machines over one shared persistent cache pays the full translation
// cost once per page — but still serially, on whichever machine touches
// the page first, interleaved with interpretation while the hot-threshold
// dues are paid. Precompile removes even that: it lists every page of the
// loaded program and translates them all in one bounded parallel loop,
// populating the persistent cache before any guest instruction runs.
//
// The publish-safety argument is by construction: each page is translated
// from a private snapshot by a private translator behind the recover
// barrier, and the result is NEVER installed into the machine — the only
// sink is the content-addressed cache, and the only reader of that cache
// re-keys every page by its current bytes at install time
// (installCached). A precompiled translation can therefore never reach
// execution on a page whose bytes have changed: the digest in the key
// would differ and the load would miss. Precompile holds the machine
// goroutine from snapshot to Save, so the bytes cannot change in between.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"daisy/internal/asm"
	"daisy/internal/core"
	"daisy/internal/txcache"
)

// PrecompileReport summarizes one pre-translation pass.
type PrecompileReport struct {
	Pages         int // distinct pages considered
	AlreadyCached int // pages the cache already held (skipped unread)
	Skipped       int // pages the cache may not serve (cacheUsable said no)
	Translated    int // pages translated by the pass
	Stored        int // translations written to the cache
	Failed        int // pages whose translation errored (data pages, faults)
	SaveErrors    int // translated pages the cache did not keep: failed writes and writes the store bypassed
}

func (r PrecompileReport) String() string {
	return fmt.Sprintf("precompile: %d pages: %d cached, %d translated, %d stored, %d failed, %d skipped, %d save-errors",
		r.Pages, r.AlreadyCached, r.Translated, r.Stored, r.Failed, r.Skipped, r.SaveErrors)
}

// aotJob is one page of a Precompile pass: its cache key (whose digest
// pins the snapshot's bytes), translation entry, private snapshot and
// chaos plan, and the result its translating goroutine fills in.
type aotJob struct {
	key   txcache.Key
	entry uint32
	snap  []byte
	plan  *TranslationFault

	pt   *core.PageTranslation
	work core.Stats
	err  error
}

// ErrNoCache is returned by Precompile on a machine without a persistent
// cache: the pass has no sink, so running it would only burn CPU.
var ErrNoCache = errors.New("vmm: precompile needs Options.Cache")

// Precompile translates every page the loaded program's chunks touch and
// writes the results to the persistent cache. Each page is translated
// from the program entry when the entry lies in it (the one entry point
// known without execution), otherwise from the page base. It runs on the
// machine goroutine — like every translation entry point — and must not
// race Run; pages already cached are skipped without being read.
//
// Failures are per-page and final for the pass: a page that does not
// translate (a data page, a planted fault) is counted and skipped — it
// will be handled by the normal interpret/translate path if it is ever
// actually executed. Precompile never quarantines, never retries, and
// never touches the machine's page table, hotness or retry state.
func (m *Machine) Precompile(prog *asm.Program) (PrecompileReport, error) {
	var rep PrecompileReport
	if m.Opt.Cache == nil {
		return rep, ErrNoCache
	}
	ps := m.Trans.Opt.PageSize
	entry := prog.Entry()
	seen := make(map[uint32]bool)
	var jobs []aotJob
	for _, c := range prog.Chunks {
		if len(c.Data) == 0 {
			continue
		}
		end := c.Addr + uint32(len(c.Data))
		for base := c.Addr &^ (ps - 1); base < end; base += ps {
			if seen[base] {
				continue
			}
			seen[base] = true
			rep.Pages++
			if !m.cacheUsable(base) {
				rep.Skipped++
				continue
			}
			key, ok := m.cacheKey(base)
			if !ok {
				rep.Skipped++
				continue
			}
			if m.Opt.Cache.Has(key) {
				rep.AlreadyCached++
				continue
			}
			job := aotJob{key: key, entry: base, snap: m.Mem.Bytes(base, ps)}
			if entry >= base && entry < base+ps {
				job.entry = entry
			}
			// Drawn here, on the machine goroutine and in page order, as
			// enqueue draws it, so seeded injectors stay deterministic.
			job.plan = m.plantedFault(base)
			jobs = append(jobs, job)
		}
	}

	// At most GOMAXPROCS goroutines translate at once, each taking the next
	// job index and filling in that job's result, so the order below is
	// the page order whatever the scheduling.
	opt := m.Opt.Trans
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				j.pt, j.work, j.err = translateSnapshot(j.key.PageBase, j.entry, j.snap, j.plan, opt)
			}
		}()
	}
	wg.Wait()

	for _, j := range jobs {
		if j.err != nil {
			rep.Failed++
			var pf *panicFault
			if errors.As(j.err, &pf) {
				m.notePanic(j.key.PageBase)
			}
			continue
		}
		rep.Translated++
		m.Trans.Stats = m.Trans.Stats.Add(j.work)
		stored, err := m.Opt.Cache.Save(j.key, layoutGroups(j.pt))
		if err != nil {
			m.Stats.CacheSaveErrors++
		}
		if stored {
			rep.Stored++
			m.Stats.CacheStores++
		} else {
			rep.SaveErrors++
		}
	}
	return rep, nil
}
