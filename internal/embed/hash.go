// Package embed provides the embedding substrate of the reproduction. The
// paper relies on pre-trained language models (BERT, RoBERTa, sBERT) and
// word-embedding models (FastText, GloVe); none are available offline in
// pure Go, so this package implements deterministic feature-hashed
// simulators that preserve the properties the paper's experiments depend on:
//
//   - Token-content geometry: texts that share tokens embed close together,
//     texts from different vocabularies embed far apart.
//   - Anisotropy: the language-model simulators mix in a large shared
//     component, so raw cosine similarity between ANY two embeddings is
//     high. This is the well-documented property of untuned transformer
//     embeddings that makes the paper's pre-trained baselines perform at
//     coin-toss accuracy on tuple unionability (Fig. 6) while remaining
//     usable for euclidean-distance clustering (Table 1).
//   - Instance noise: a deterministic pseudo-random component seeded by the
//     exact input, modelling encoder instability. Model quality differences
//     in Table 1 (RoBERTa > sBERT > BERT) come from this knob.
//
// All randomness is hash-derived, so every embedding is a pure function of
// (model, input) and experiments are reproducible.
package embed

import "math"

// splitmix64 advances and scrambles a 64-bit state; it is the PRNG used to
// derive pseudo-random vector components from token hashes.
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}

// hashString folds s into a 64-bit FNV-1a hash mixed with seed.
func hashString(s string, seed uint64) uint64 {
	return hashAdd(hashSeed(seed), s)
}

// hashSeed, hashAdd and hashByte are hashString in streaming form: they
// hash a key from its parts without building the concatenated string, so
// hashAdd(hashAdd(hashSeed(seed), a), b) == hashString(a+b, seed).
func hashSeed(seed uint64) uint64 {
	const offset = 14695981039346656037
	return offset ^ (seed * 0x9e3779b97f4a7c15)
}

func hashAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

func hashByte(h uint64, b byte) uint64 {
	const prime = 1099511628211
	return (h ^ uint64(b)) * prime
}

// classKey is hashString("class:"+cls, seed).
func classKey(cls string, seed uint64) uint64 {
	return hashAdd(hashAdd(hashSeed(seed), "class:"), cls)
}

// bigramKey is hashString(a+"\x00"+b, seed).
func bigramKey(a, b string, seed uint64) uint64 {
	return hashAdd(hashByte(hashString(a, seed), 0), b)
}

// noiseKey is hashString of the tokens each followed by a 0x1f separator.
func noiseKey(tokens []string, seed uint64) uint64 {
	h := hashSeed(seed)
	for _, t := range tokens {
		h = hashByte(hashAdd(h, t), 0x1f)
	}
	return h
}

// unitGaussian converts a 64-bit word to an approximately standard-normal
// float via the sum of 4 scaled uniform lanes (Irwin-Hall approximation,
// plenty for embedding geometry).
func unitGaussian(z uint64) float64 {
	var s float64
	for i := 0; i < 4; i++ {
		lane := (z >> (i * 16)) & 0xffff
		s += float64(lane)/65535.0 - 0.5
	}
	return s * math.Sqrt(3) // variance of sum of 4 uniforms on [-.5,.5] is 1/3
}

// pseudoVector fills out with a deterministic pseudo-random unit vector
// derived from seed.
func pseudoVector(seed uint64, out []float64) {
	state := seed
	var z uint64
	var norm float64
	for i := range out {
		state, z = splitmix64(state)
		out[i] = unitGaussian(z)
		norm += out[i] * out[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	for i := range out {
		out[i] /= norm
	}
}
