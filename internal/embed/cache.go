package embed

import "sync"

// cacheBits sizes the token-vector cache: 1<<cacheBits slots of DefaultDim
// float64, 512 KiB in all.
const cacheBits = 9

// vecCache memoizes pseudoVector at DefaultDim. It is keyed by the 64-bit
// hash pseudoVector derives a vector from, and pseudoVector is a pure
// function of that hash and the length of its output, so a hit is
// bit-identical to recomputing. The key already mixes the encoder's seed,
// so every encoder at DefaultDim shares one table (the default column,
// tuple and Starmie encoders all use the RoBERTa seed). Direct-mapped: a
// slot holds the last key that hashed to it, and a colliding key
// recomputes and takes the slot over.
type vecCache struct {
	slots [1 << cacheBits]cacheSlot
}

type cacheSlot struct {
	mu   sync.Mutex
	full bool
	key  uint64
	vec  [DefaultDim]float64
}

// tokenCache is shared by every encoder in the process. It serves the
// vectors that repeat across inputs: token, synonym-class and bigram keys.
// Per-input noise vectors would only evict them, so they bypass it.
var tokenCache = new(vecCache)

// addPseudoVector adds w*pseudoVector(key) into dst. At DefaultDim the
// vector comes from tokenCache, computed in place in its slot on a miss;
// other dimensions compute it into scratch, which must be as long as dst.
func addPseudoVector(dst, scratch []float64, key uint64, w float64) {
	if len(dst) != DefaultDim {
		pseudoVector(key, scratch)
		vecAddScaled(dst, scratch, w)
		return
	}
	// The top bits of an FNV-1a hash are its best mixed.
	s := &tokenCache.slots[key>>(64-cacheBits)]
	s.mu.Lock()
	if !s.full || s.key != key {
		pseudoVector(key, s.vec[:])
		s.full, s.key = true, key
	}
	vecAddScaled(dst, s.vec[:], w)
	s.mu.Unlock()
}
