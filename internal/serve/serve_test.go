package serve_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/trie"
)

// newServed builds an index preloaded with n distinct keys, a matching
// sequential oracle, and a Server over the index.
func newServed(t *testing.T, p, n int, opts serve.Options) (*serve.Server, *trie.Trie, []serve.Key) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	seen := make(map[string]bool, n)
	keys := make([]serve.Key, 0, n)
	values := make([]uint64, 0, n)
	for len(keys) < n {
		k := randomKey(r, 72)
		id := fmt.Sprintf("%x/%d", k.Bytes(), k.Len())
		if seen[id] {
			continue
		}
		seen[id] = true
		keys = append(keys, k)
		values = append(values, uint64(len(keys)))
	}
	ix := pimtrie.New(p, pimtrie.Options{Seed: 11})
	ix.Load(keys, values)
	oracle := trie.New()
	for i, k := range keys {
		oracle.Insert(k, values[i])
	}
	return serve.NewServer(ix, opts), oracle, keys
}

func randomKey(r *rand.Rand, maxLen int) serve.Key {
	n := 1 + r.Intn(maxLen)
	b := make([]byte, (n+7)/8)
	r.Read(b)
	return pimtrie.KeyFromBytes(b).Prefix(n)
}

// replayHistory replays the committed epoch order against the oracle
// and asserts every recorded response matches sequential execution.
func replayHistory(t *testing.T, hist []*serve.EpochRecord, oracle *trie.Trie) {
	t.Helper()
	for ei, er := range hist {
		for _, op := range er.Ops {
			switch op.Op {
			case serve.OpInsert:
				for i, k := range op.Keys {
					oracle.Insert(k, op.Values[i])
				}
			case serve.OpDelete:
				for i, k := range op.Keys {
					if got, want := op.Found[i], oracle.Delete(k); got != want {
						t.Fatalf("epoch %d: Delete(%q) found=%v, serial replay says %v", ei, k, got, want)
					}
				}
			case serve.OpGet:
				for i, k := range op.Keys {
					wv, wok := oracle.Get(k)
					if op.Found[i] != wok || (wok && op.Vals[i] != wv) {
						t.Fatalf("epoch %d: Get(%q) = %d,%v, serial replay says %d,%v",
							ei, k, op.Vals[i], op.Found[i], wv, wok)
					}
				}
			case serve.OpLCP:
				for i, k := range op.Keys {
					if want := oracle.LCPLen(k); op.LCPs[i] != want {
						t.Fatalf("epoch %d: LCP(%q) = %d, serial replay says %d",
							ei, k, op.LCPs[i], want)
					}
				}
			case serve.OpSubtree:
				for i, k := range op.Keys {
					want := oracle.SubtreeKeys(k)
					got := op.KVs[i]
					if len(got) != len(want) {
						t.Fatalf("epoch %d: Subtree(%q) returned %d pairs, serial replay says %d",
							ei, k, len(got), len(want))
					}
					for j := range want {
						if !bitstr.Equal(got[j].Key, want[j].Key) || got[j].Value != want[j].Value {
							t.Fatalf("epoch %d: Subtree(%q)[%d] = (%q,%d), serial replay says (%q,%d)",
								ei, k, j, got[j].Key, got[j].Value, want[j].Key, want[j].Value)
						}
					}
				}
			}
		}
	}
}

// TestServeSoak hammers a Server from many goroutines with mixed reads
// and writes of random batch sizes, then asserts every response it
// handed out is consistent with a serial replay of the committed epoch
// order. Run under -race.
func TestServeSoak(t *testing.T) {
	configs := []struct {
		name string
		opts serve.Options
	}{
		{"pipelined", serve.Options{MaxBatch: 64, RecordHistory: true}},
		{"linger", serve.Options{MaxBatch: 64, MaxLinger: time.Millisecond, RecordHistory: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			srv, oracle, pool := newServed(t, 8, 400, tc.opts)
			const workers = 12
			const iters = 40
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					pick := func() serve.Key {
						if r.Intn(4) == 0 {
							return randomKey(r, 72)
						}
						return pool[r.Intn(len(pool))]
					}
					for it := 0; it < iters; it++ {
						nk := 1 + r.Intn(6)
						keys := make([]serve.Key, nk)
						for i := range keys {
							keys[i] = pick()
						}
						switch r.Intn(10) {
						case 0, 1:
							vals := make([]uint64, nk)
							for i := range vals {
								vals[i] = r.Uint64()
							}
							if err := srv.InsertAsync(keys, vals).Wait(); err != nil {
								t.Errorf("insert: %v", err)
							}
						case 2:
							if _, err := srv.DeleteAsync(keys...).Wait(); err != nil {
								t.Errorf("delete: %v", err)
							}
						case 3:
							prefixes := make([]serve.Key, nk)
							for i, k := range keys {
								prefixes[i] = k.Prefix(1 + r.Intn(k.Len()))
							}
							if _, err := srv.SubtreeAsync(prefixes...).Wait(); err != nil {
								t.Errorf("subtree: %v", err)
							}
						case 4, 5, 6:
							if _, err := srv.LCPAsync(keys...).Wait(); err != nil {
								t.Errorf("lcp: %v", err)
							}
						default:
							if _, _, err := srv.GetAsync(keys...).Wait(); err != nil {
								t.Errorf("get: %v", err)
							}
						}
					}
				}(int64(100 + w))
			}
			wg.Wait()
			srv.Close()
			st := srv.Stats()
			if st.ReadEpochs == 0 || st.WriteEpochs == 0 {
				t.Fatalf("soak formed no epochs of one kind: %+v", st)
			}
			replayHistory(t, srv.History(), oracle)
		})
	}
}

// TestServeDedupe asserts singleflight: N concurrent identical Gets
// coalesce into one executed key.
func TestServeDedupe(t *testing.T) {
	srv, _, pool := newServed(t, 4, 64, serve.Options{MaxLinger: 200 * time.Millisecond})
	defer srv.Close()
	const n = 32
	hot := pool[0]
	start := make(chan struct{})
	var wg sync.WaitGroup
	res := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, found, err := srv.Get(hot)
			if err != nil || !found {
				t.Errorf("Get(hot) = %d,%v,%v", v, found, err)
			}
			res[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if res[i] != res[0] {
			t.Fatalf("deduped Gets disagree: %d vs %d", res[i], res[0])
		}
	}
	st := srv.Stats()
	if st.KeysRequested[serve.OpGet] != n {
		t.Fatalf("KeysRequested[get] = %d, want %d", st.KeysRequested[serve.OpGet], n)
	}
	if st.KeysExecuted[serve.OpGet] != 1 {
		t.Fatalf("KeysExecuted[get] = %d, want 1 (singleflight)", st.KeysExecuted[serve.OpGet])
	}
	if st.ReadEpochs != 1 {
		t.Fatalf("ReadEpochs = %d, want 1", st.ReadEpochs)
	}
}

// TestServeClosed checks Close semantics: queued work drains, later
// submissions fail with ErrClosed.
func TestServeClosed(t *testing.T) {
	srv, _, pool := newServed(t, 4, 32, serve.Options{})
	futs := make([]*serve.LCPFuture, 8)
	for i := range futs {
		futs[i] = srv.LCPAsync(pool[i])
	}
	srv.Close()
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("pre-Close request %d not drained: %v", i, err)
		}
	}
	if _, _, err := srv.Get(pool[0]); err != serve.ErrClosed {
		t.Fatalf("post-Close Get err = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

// TestServeEmpty checks zero-key requests resolve immediately.
func TestServeEmpty(t *testing.T) {
	srv, _, _ := newServed(t, 4, 16, serve.Options{})
	defer srv.Close()
	if vals, found, err := srv.GetAsync().Wait(); err != nil || len(vals) != 0 || len(found) != 0 {
		t.Fatalf("empty Get = %v,%v,%v", vals, found, err)
	}
	if lcps, err := srv.LCPAsync().Wait(); err != nil || len(lcps) != 0 {
		t.Fatalf("empty LCP = %v,%v", lcps, err)
	}
}
