package main

import (
	"math/rand"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/workload"
)

type (
	key = pimtrie.Key
	kv  = pimtrie.KV
)

const (
	// numKeys is the loaded size of every workload's index (or, on
	// serve-snapshot, of all shards together).
	numKeys = 200_000
	// modules is P, the simulated PIM modules per index.
	modules = 32
	// freshBits is the length of keys inserted during a run. Loaded keys
	// are at most maxBaseBits long, so a fresh key never equals one.
	freshBits   = 128
	maxBaseBits = 120
)

// baseKeys returns the loaded key set and its values: distinct
// variable-length keys, nine tenths uniform random of 40 to 120 bits and
// one tenth extending one shared 48-bit prefix (a deep spine of data
// skew), in a seed-determined order.
func baseKeys(seed int64) ([]key, []uint64) {
	g := workload.New(seed)
	keys := g.VarLen(numKeys*9/10, 40, maxBaseBits)
	keys = append(keys, g.SharedPrefix(numKeys-len(keys), 48, 40)...)
	bitstr.Sort(keys)
	uniq := keys[:1]
	for _, k := range keys[1:] {
		if !bitstr.Equal(k, uniq[len(uniq)-1]) {
			uniq = append(uniq, k)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(uniq), func(i, j int) { uniq[i], uniq[j] = uniq[j], uniq[i] })
	return uniq, g.Values(len(uniq))
}

// mix is the splitmix64 finalizer, a bijection on uint64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// freshKey returns the seq-th fresh key of a stream. Keys of distinct
// (stream, seq) pairs differ in their first word, since mix is a
// bijection and seq stays below 2^40; they are freshBits long, so they
// never equal a loaded key.
func freshKey(seed int64, stream, seq uint64) key {
	w0 := mix(stream<<40 | seq)
	return bitstr.New([]uint64{w0, mix(w0 ^ uint64(seed))}, freshBits)
}

// valueOf is the value a run stores under a fresh key.
func valueOf(k key) uint64 { return mix(k.RawWords()[0]) >> 1 }
