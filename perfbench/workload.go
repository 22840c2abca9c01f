package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/serve"
	"jskernel/internal/sim"
)

// The serve workloads send one fixed population of /v1/eval requests
// per pass: every Table I timing cell (10 rows x 8 defenses, reps 1)
// and the 12 CVE rows against chrome and jskernel-chrome. The workload
// seed picks each request's seed and each pass's order; the
// composition (which cells, with which flags and tenant) never
// depends on it.

// cveDefenses are the columns the serve population runs CVE rows on.
var cveDefenses = []string{"chrome", "jskernel-chrome"}

const (
	// forensicsEvery: one request in this many (by canonical position)
	// asks for trace+forensics on serve-plane.
	forensicsEvery = 8
	// tenants spreads serve-plane requests over this many tenants.
	tenants = 4
	// scrapeEvery: each serve client scrapes /metricsz after every
	// this-many of its evals.
	scrapeEvery = 16
)

// tableICells lists one reps-1 request per Table I cell in canonical
// order: every (timing row, defense) and every (CVE row, defense in
// cveDefs). Seeds are left zero.
func tableICells(cveDefs []string) []serve.Request {
	var reqs []serve.Request
	for _, a := range attack.TimingAttacks() {
		for _, d := range defense.TableIDefenses() {
			reqs = append(reqs, serve.Request{Attack: a.ID, Defense: d.ID, Reps: 1})
		}
	}
	for _, a := range attack.CVEAttacks() {
		for _, d := range cveDefs {
			reqs = append(reqs, serve.Request{Attack: string(a.CVE), Defense: d})
		}
	}
	return reqs
}

// table1Requests lists the cells of one table1 render (Table I at
// reps 1, every CVE row on every defense) with seeds derived from the
// workload seed. The per-render cell count, the digests and the traced
// run all take the list from here; expr.Table1 runs the same cells in
// its own row order and seeds them itself.
func table1Requests(seed int64) []serve.Request {
	var defs []string
	for _, d := range defense.TableIDefenses() {
		defs = append(defs, d.ID)
	}
	reqs := tableICells(defs)
	for i := range reqs {
		reqs[i].Seed = sim.DeriveSeed(seed, int64(i))
	}
	return reqs
}

// population returns the canonical-order request population of a
// serve workload for one seed. Every request asks for its trace; on
// serve-plane one in forensicsEvery also asks for forensics and the
// requests are spread over the tenants.
func population(workload string, seed int64) []serve.Request {
	reqs := tableICells(cveDefenses)
	for i := range reqs {
		reqs[i].Seed = sim.DeriveSeed(seed, int64(i))
		reqs[i].Trace = true
		if workload == wlServePlane {
			reqs[i].Forensics = i%forensicsEvery == 0
			reqs[i].Tenant = fmt.Sprintf("tenant-%d", (i/forensicsEvery)%tenants)
		}
	}
	return reqs
}

// passOrder returns the order in which pass p sends the population.
func passOrder(seed int64, pass, n int) []int {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, int64(1_000_000+pass))))
	return rng.Perm(n)
}

// compositionKey names a request without its seed.
func compositionKey(r serve.Request) string {
	return fmt.Sprintf("%s|%s|reps=%d|trace=%t|forensics=%t|tenant=%s", r.Attack, r.Defense, r.Reps, r.Trace, r.Forensics, r.Tenant)
}

// compositionDigest hashes the multiset of composition keys.
func compositionDigest(keys []string) string {
	s := append([]string(nil), keys...)
	sort.Strings(s)
	h := sha256.New()
	for _, k := range s {
		fmt.Fprintln(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// orderDigest hashes a sequence of keys in order.
func orderDigest(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digests returns the composition digest of reqs and the digest of
// the given order of them, request seeds included.
func digests(reqs []serve.Request, order []int) (comp, ord string) {
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		keys[i] = compositionKey(r)
	}
	var seq []string
	for _, i := range order {
		seq = append(seq, fmt.Sprintf("%s|seed=%d", keys[i], reqs[i].Seed))
	}
	return compositionDigest(keys), orderDigest(seq)
}

// populationDigests returns the composition digest and the digest of
// the first pass's order (with request seeds) for a serve workload.
func populationDigests(workload string, seed int64) (comp, order string) {
	reqs := population(workload, seed)
	return digests(reqs, passOrder(seed, 0, len(reqs)))
}

// table1Digests describes the table1 cell list: its composition (rows,
// defenses, reps; no seeds) and its cells in render order with the
// seeds the workload seed derives.
func table1Digests(seed int64) (comp, order string) {
	reqs := table1Requests(seed)
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	return digests(reqs, idx)
}
