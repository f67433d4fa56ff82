package shard_test

// Oracle-equality tests: a Router over any shard count, routing
// granularity and partitioner must answer every operation bit-identically
// to one pimtrie.Index holding all the keys — including cross-shard
// Subtrees merges and answers straddling forced mid-script migrations.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/shard"
	"github.com/pimlab/pimtrie/internal/wal"
	"github.com/pimlab/pimtrie/internal/workload"
)

func sameKVs(t *testing.T, what string, got, want []shard.KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bitstr.Equal(got[i].Key, want[i].Key) || got[i].Value != want[i].Value {
			t.Fatalf("%s: pair %d = (%q, %d), want (%q, %d)",
				what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// driveOracle runs a mixed scripted workload against router and oracle
// and compares every answer. migrate, when non-nil, is invoked between
// script steps to force slot moves mid-run.
func driveOracle(t *testing.T, r *shard.Router, oracle *pimtrie.Index, seed int64, migrate func(step int)) {
	t.Helper()
	gen := workload.New(seed)
	rng := rand.New(rand.NewSource(seed + 77))

	// Variable-length keys starting at 1 bit: lots of keys shorter than
	// any RouteBits under test, exercising replication.
	keys := dedupeKeys(gen.VarLen(500, 1, 48))
	vals := gen.Values(len(keys))

	chunk := 64
	for i := 0; i < len(keys); i += chunk {
		j := i + chunk
		if j > len(keys) {
			j = len(keys)
		}
		if err := r.Insert(keys[i:j], vals[i:j]); err != nil {
			t.Fatalf("router insert: %v", err)
		}
		oracle.Insert(keys[i:j], vals[i:j])
	}

	for step := 0; step < 12; step++ {
		if migrate != nil {
			migrate(step)
		}

		// Point lookups: stored keys, random probes, prefixes of stored keys.
		queries := append([]shard.Key{}, gen.Zipf(keys, 40, 1.2)...)
		queries = append(queries, gen.VarLen(20, 1, 40)...)
		queries = append(queries, gen.PrefixQueries(keys, 20, 4)...)
		gotV, gotF, err := r.Get(queries)
		if err != nil {
			t.Fatalf("step %d router get: %v", step, err)
		}
		wantV, wantF := oracle.Get(queries)
		for i := range queries {
			if gotF[i] != wantF[i] || (gotF[i] && gotV[i] != wantV[i]) {
				t.Fatalf("step %d get %q = (%d,%v), want (%d,%v)",
					step, queries[i], gotV[i], gotF[i], wantV[i], wantF[i])
			}
		}

		// LCP over the same mixed queries.
		gotL, err := r.LCP(queries)
		if err != nil {
			t.Fatalf("step %d router lcp: %v", step, err)
		}
		for i, want := range oracle.LCP(queries) {
			if gotL[i] != want {
				t.Fatalf("step %d lcp %q = %d, want %d", step, queries[i], gotL[i], want)
			}
		}

		// Subtrees: empty prefix (full ordered dump), short prefixes that
		// straddle shards, and long prefixes owned by one slot.
		prefixes := []shard.Key{bitstr.Empty}
		for _, n := range []int{1, 2, 3, 5, 9, 17} {
			k := keys[rng.Intn(len(keys))]
			if k.Len() < n {
				prefixes = append(prefixes, k)
			} else {
				prefixes = append(prefixes, k.Prefix(n))
			}
		}
		gotS, err := r.Subtrees(prefixes)
		if err != nil {
			t.Fatalf("step %d router subtrees: %v", step, err)
		}
		wantS := oracle.Subtrees(prefixes)
		for i := range prefixes {
			sameKVs(t, fmt.Sprintf("step %d subtree %q", step, prefixes[i]), gotS[i], wantS[i])
		}

		// Mutate: delete a few stored keys and a few misses, reinsert
		// fresh keys (shifted values) to keep the store churning.
		dels := append(gen.Zipf(keys, 6, 1.1), gen.VarLen(3, 1, 40)...)
		dels = dedupeKeys(dels)
		gotD, err := r.Delete(dels)
		if err != nil {
			t.Fatalf("step %d router delete: %v", step, err)
		}
		for i, want := range oracle.Delete(dels) {
			if gotD[i] != want {
				t.Fatalf("step %d delete %q = %v, want %v", step, dels[i], gotD[i], want)
			}
		}
		fresh := dedupeKeys(gen.VarLen(8, 1, 48))
		fvals := gen.Values(len(fresh))
		if err := r.Insert(fresh, fvals); err != nil {
			t.Fatalf("step %d router insert: %v", step, err)
		}
		oracle.Insert(fresh, fvals)
		keys = append(keys, fresh...)
	}

	// Final full-state check.
	gotAll, err := r.Subtree(bitstr.Empty)
	if err != nil {
		t.Fatalf("final subtree: %v", err)
	}
	sameKVs(t, "final full dump", gotAll, oracle.Subtree(bitstr.Empty))
}

// dedupeKeys drops repeated keys, keeping first occurrences, so batch
// answers don't depend on duplicate-application order.
func dedupeKeys(keys []bitstr.String) []bitstr.String {
	seen := make(map[string]bool, len(keys))
	out := keys[:0]
	for _, k := range keys {
		s := k.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, k)
		}
	}
	return out
}

func TestRouterMatchesOracle(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		bits   int
		part   shard.Partitioner
	}{
		{"1shard-contiguous", 1, 4, shard.Contiguous{}},
		{"3shard-hashed", 3, 4, shard.HashedPrefix{Seed: 9}},
		{"4shard-contiguous", 4, 6, shard.Contiguous{}},
		{"8shard-hashed", 8, 5, shard.HashedPrefix{Seed: 2}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := shard.New(shard.Config{
				Shards:      tc.shards,
				RouteBits:   tc.bits,
				Partitioner: tc.part,
				Modules:     8,
				Index:       pimtrie.Options{Seed: 11},
			})
			defer r.Close()
			oracle := pimtrie.New(8, pimtrie.Options{Seed: 5})
			driveOracle(t, r, oracle, 321, nil)
		})
	}
}

// TestRouterMatchesOracleAcrossMigrations forces slot migrations
// between script steps: every answer before and after each move must
// still match the oracle, and moved ranges must not resurface on their
// old shard.
func TestRouterMatchesOracleAcrossMigrations(t *testing.T) {
	const shards, bits = 4, 5
	r := shard.New(shard.Config{
		Shards:      shards,
		RouteBits:   bits,
		Partitioner: shard.Contiguous{},
		Modules:     8,
		Index:       pimtrie.Options{Seed: 3},
	})
	defer r.Close()
	oracle := pimtrie.New(8, pimtrie.Options{Seed: 8})
	rng := rand.New(rand.NewSource(99))
	driveOracle(t, r, oracle, 654, func(step int) {
		// Force a couple of random moves per step, occasionally a no-op
		// move to the current owner.
		for i := 0; i < 2; i++ {
			slot := rng.Intn(r.Slots())
			to := rng.Intn(shards)
			if _, err := r.MigrateSlot(slot, to); err != nil {
				t.Fatalf("step %d migrate slot %d -> %d: %v", step, slot, to, err)
			}
			if got := r.Table()[slot]; got != to {
				t.Fatalf("step %d: slot %d owned by %d after migrating to %d", step, slot, got, to)
			}
		}
	})
	if st := r.Stats(); st.Migrations == 0 {
		t.Fatal("no migrations recorded despite forced moves")
	}
}

// TestRouterAsyncPipelining checks that overlapping async batches from
// one caller resolve correctly (futures are independent).
func TestRouterAsyncPipelining(t *testing.T) {
	r := shard.New(shard.Config{Shards: 3, RouteBits: 4, Modules: 8,
		Index: pimtrie.Options{Seed: 4}, Partitioner: shard.HashedPrefix{Seed: 1}})
	defer r.Close()
	gen := workload.New(7)
	keys := dedupeKeys(gen.VarLen(300, 2, 40))
	vals := gen.Values(len(keys))
	if err := r.Insert(keys, vals); err != nil {
		t.Fatal(err)
	}
	futs := make([]*shard.GetFuture, 8)
	for i := range futs {
		futs[i] = r.GetAsync(keys[i*20 : i*20+20]...)
	}
	for i, f := range futs {
		gotV, gotF, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		for j := 0; j < 20; j++ {
			if !gotF[j] || gotV[j] != vals[i*20+j] {
				t.Fatalf("future %d key %d = (%d,%v), want (%d,true)",
					i, j, gotV[j], gotF[j], vals[i*20+j])
			}
		}
	}
}

// TestRouterClosed: operations after Close fail cleanly.
func TestRouterClosed(t *testing.T) {
	r := shard.New(shard.Config{Shards: 2, RouteBits: 3, Modules: 4, Index: pimtrie.Options{Seed: 1}})
	r.Close()
	r.Close() // idempotent
	if _, _, err := r.Get([]shard.Key{pimtrie.KeyFromBits("0101")}); err == nil {
		t.Fatal("Get after Close succeeded")
	}
	if _, err := r.MigrateSlot(0, 1); err == nil {
		t.Fatal("MigrateSlot after Close succeeded")
	}
}

// TestRouterRejectsDurable: a durable Serve config would have every
// shard's executor append to the same write-ahead log, so New refuses
// it with a panic, like its other invalid configurations.
// The log and index are valid for a single serve.Server, so only the
// router's own check can reject the config.
func TestRouterRejectsDurable(t *testing.T) {
	log, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted a shared Serve.Durable")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "shard: Serve.Durable") {
			t.Fatalf("panic %q is not the router's Durable check", msg)
		}
	}()
	r := shard.New(shard.Config{
		Shards: 2, RouteBits: 3, Modules: 4,
		Index: pimtrie.Options{Seed: 1, Recoverable: true},
		Serve: serve.Options{Durable: &serve.Durable{Log: log}},
	})
	r.Close()
}

func TestPartitionersCoverSlots(t *testing.T) {
	for _, p := range []shard.Partitioner{shard.Contiguous{}, shard.HashedPrefix{Seed: 4}} {
		for _, shards := range []int{1, 2, 3, 5, 8} {
			table := p.Assign(64, shards)
			if len(table) != 64 {
				t.Fatalf("%s: %d slots", p.Name(), len(table))
			}
			counts := make([]int, shards)
			for _, sid := range table {
				counts[sid]++
			}
			for sid, n := range counts {
				if n == 0 && shards <= 64 {
					t.Errorf("%s shards=%d: shard %d owns no slots", p.Name(), shards, sid)
				}
				if min, max := 64/shards, (64+shards-1)/shards; n < min || n > max+1 {
					t.Errorf("%s shards=%d: shard %d owns %d slots, want ≈%d",
						p.Name(), shards, sid, n, 64/shards)
				}
			}
		}
	}
}
