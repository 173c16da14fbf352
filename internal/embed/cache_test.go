package embed

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// refEncodeTokens is EncodeTokens without the token-vector cache and with
// every hash key built as a string: the implementation the cache and the
// streaming keys must reproduce bit for bit.
func refEncodeTokens(e *Encoder, tokens []string) vector.Vec {
	content := make(vector.Vec, e.dim)
	if len(tokens) > 0 {
		tok := make(vector.Vec, e.dim)
		isColHeader := func(t string) bool {
			return len(t) > 2 && t[0] == 'H' && t[1] == ':'
		}
		for i, t := range tokens {
			pseudoVector(hashString(t, e.seed), tok)
			vecAddScaled(content, tok, 1)
			if cls, ok := classOf(t); ok {
				w := 0.5
				switch {
				case isColHeader(t):
					w = 4.0
				case len(t) > 2 && t[0] == 'h' && t[1] == ':':
					w = 1.2
				}
				pseudoVector(hashString("class:"+cls, e.seed), tok)
				vecAddScaled(content, tok, w)
			}
			if e.contextual && i+1 < len(tokens) && !isColHeader(t) && !isColHeader(tokens[i+1]) {
				pseudoVector(hashString(tokens[i]+"\x00"+tokens[i+1], e.seed), tok)
				vecAddScaled(content, tok, 0.5)
			}
		}
		content = vector.Normalize(content)
	}
	out := make(vector.Vec, e.dim)
	contentScale := 1 - e.anisotropy
	vecAddScaled(out, content, contentScale*(1-e.noise))
	vecAddScaled(out, e.common, e.anisotropy)
	if e.noise > 0 {
		noise := make(vector.Vec, e.dim)
		pseudoVector(hashString(joinTokens(tokens), e.seed^0xA0A0), noise)
		vecAddScaled(out, noise, contentScale*e.noise)
	}
	return vector.Normalize(out)
}

func joinTokens(tokens []string) string {
	var b []byte
	for _, t := range tokens {
		b = append(b, t...)
		b = append(b, 0x1f)
	}
	return string(b)
}

// refColumnLevel, refCellLevel and refStarmie are the column encoders over
// refEncodeTokens.
func refColumnLevel(e *Encoder, col *table.Column, corpus *tokenize.Corpus) vector.Vec {
	tokens := ColumnTokens(col)
	if corpus != nil && len(tokens) > TokenBudget {
		tokens = corpus.TopK(tokens, TokenBudget)
	}
	return refEncodeTokens(e, tokens)
}

func refCellLevel(e *Encoder, col *table.Column) vector.Vec {
	acc := make(vector.Vec, e.dim)
	n := 0
	for _, v := range col.Values {
		if v == table.Null {
			continue
		}
		vecAddScaled(acc, refEncodeTokens(e, tokenize.Words(v)), 1)
		n++
	}
	if n == 0 {
		return refEncodeTokens(e, nil)
	}
	return vector.Normalize(acc)
}

func refStarmie(s StarmieEncoder, t *table.Table, corpus *tokenize.Corpus) []vector.Vec {
	content := make([]vector.Vec, t.NumCols())
	for i := range t.Columns {
		content[i] = refColumnLevel(s.Model, &t.Columns[i], corpus)
	}
	ctx := vector.Mean(content)
	out := make([]vector.Vec, len(content))
	for i, c := range content {
		v := make(vector.Vec, len(c))
		for j := range v {
			v[j] = (1-s.ContextWeight)*c[j] + s.ContextWeight*ctx[j]
		}
		out[i] = vector.Normalize(v)
	}
	return out
}

// resetCache empties every slot of the token-vector cache.
func resetCache() {
	for i := range tokenCache.slots {
		s := &tokenCache.slots[i]
		s.mu.Lock()
		s.full, s.key = false, 0
		s.mu.Unlock()
	}
}

// poisonCache fills every slot with a NaN vector under a key that maps to
// that slot, with all its low bits set (a real key matches one with
// probability 2^-55), so every lookup collides; serving a poisoned slot
// would turn the output into NaN.
func poisonCache() {
	for i := range tokenCache.slots {
		s := &tokenCache.slots[i]
		s.mu.Lock()
		s.full, s.key = true, uint64(i)<<(64-cacheBits)|(1<<(64-cacheBits)-1)
		for k := range s.vec {
			s.vec[k] = math.NaN()
		}
		s.mu.Unlock()
	}
}

// edgeTokens covers the key edge cases: empty tokens, unicode, and the
// separator bytes of the bigram (0x00) and noise (0x1f) keys.
var edgeTokens = []string{"", "café", "日本", "a\x00", "\x00b", "x\x1fy", "\x1f", "h:city", "H:name", "h:", "H:"}

func TestStreamingKeysMatchStringKeys(t *testing.T) {
	words := append([]string{"river", "park", "supervisor"}, edgeTokens...)
	for _, seed := range []uint64{0, 0x40BE, 0x40BE ^ 0xA0A0, math.MaxUint64} {
		for _, a := range words {
			if got, want := classKey(a, seed), hashString("class:"+a, seed); got != want {
				t.Errorf("classKey(%q, %x) = %x, want %x", a, seed, got, want)
			}
			for _, b := range words {
				if got, want := bigramKey(a, b, seed), hashString(a+"\x00"+b, seed); got != want {
					t.Errorf("bigramKey(%q, %q, %x) = %x, want %x", a, b, seed, got, want)
				}
			}
		}
		for _, toks := range [][]string{nil, {}, {""}, {"", ""}, words, edgeTokens} {
			if got, want := noiseKey(toks, seed), hashString(joinTokens(toks), seed); got != want {
				t.Errorf("noiseKey(%q, %x) = %x, want %x", toks, seed, got, want)
			}
		}
	}
}

// cacheFixture is a table whose columns exercise every encoder branch:
// synonym-class headers, nulls, over-budget columns (TF-IDF selection),
// and the edge tokens. Its vocabulary is several times the cache's slot
// count, so the inputs also collide with one another.
func cacheFixture() (*table.Table, *tokenize.Corpus, [][]string) {
	var cols []table.Column
	cols = append(cols, table.Column{Name: "City", Values: []string{"Fresno", "Chicago", table.Null, "Zürich"}})
	cols = append(cols, table.Column{Name: "Supervisor Name", Values: []string{"Vera Onate", "Jo Lee", "Jo Lee", table.Null}})
	cols = append(cols, table.Column{Name: "Notes", Values: edgeTokens})
	cols = append(cols, table.Column{Name: "empty", Values: []string{table.Null, table.Null}})
	big := make([]string, 700)
	for i := range big {
		big[i] = fmt.Sprintf("w%d v%d", i, i%37)
	}
	cols = append(cols, table.Column{Name: "Description", Values: big})
	tb := &table.Table{Name: "fixture", Columns: cols}
	var corpus tokenize.Corpus
	for i := range cols {
		corpus.AddDocument(ColumnTokens(&cols[i]))
	}
	inputs := [][]string{nil, {}, {""}, edgeTokens}
	headers := []string{"Park Name", "City", "Country"}
	for i := 0; i < 40; i++ {
		inputs = append(inputs, TupleTokens(headers, []string{fmt.Sprintf("Park %d", i), fmt.Sprintf("City %d", i%7), "USA"}))
	}
	for i := range cols {
		inputs = append(inputs, ColumnTokens(&cols[i]))
	}
	return tb, &corpus, inputs
}

func sameBits(a, b vector.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCacheBitIdentical pins every encoder's output to the uncached
// reference with the cache cold, warm, and with every slot taken by a
// colliding key, at the cached dimension and at one the cache skips.
func TestCacheBitIdentical(t *testing.T) {
	tb, corpus, inputs := cacheFixture()
	defer resetCache()
	ctors := map[string]func(...Option) *Encoder{
		"fasttext": NewFastText, "glove": NewGlove, "bert": NewBERT, "roberta": NewRoBERTa, "sbert": NewSBERT,
	}
	states := []struct {
		name  string
		setup func()
	}{{"cold", resetCache}, {"warm", func() {}}, {"collided", poisonCache}}
	for _, dim := range []int{DefaultDim, 768} {
		starmie := NewStarmie()
		if dim != DefaultDim {
			starmie.Model = NewRoBERTa(WithDim(dim), WithAnisotropy(0.05))
		}
		wantStarmie := refStarmie(starmie, tb, corpus)
		for name, ctor := range ctors {
			e := ctor(WithDim(dim))
			for _, st := range states {
				st.setup()
				for i, toks := range inputs {
					if !sameBits(e.EncodeTokens(toks), refEncodeTokens(e, toks)) {
						t.Errorf("%s d%d %s: EncodeTokens(input %d) differs from the reference", name, dim, st.name, i)
					}
				}
				h, v := []string{"Park Name", "Supervisor"}, []string{"River Park", "Vera Onate"}
				if !sameBits(e.EncodeTuple(h, v), refEncodeTokens(e, TupleTokens(h, v))) {
					t.Errorf("%s d%d %s: EncodeTuple differs from the reference", name, dim, st.name)
				}
				for c := range tb.Columns {
					col := &tb.Columns[c]
					if !sameBits(ColumnLevel{Model: e}.EncodeColumn(col, corpus), refColumnLevel(e, col, corpus)) {
						t.Errorf("%s d%d %s: ColumnLevel column %q differs from the reference", name, dim, st.name, col.Name)
					}
					if !sameBits(CellLevel{Model: e}.EncodeColumn(col, corpus), refCellLevel(e, col)) {
						t.Errorf("%s d%d %s: CellLevel column %q differs from the reference", name, dim, st.name, col.Name)
					}
				}
			}
		}
		for _, st := range states {
			st.setup()
			got := starmie.EncodeTableColumns(tb, corpus)
			for c := range got {
				if !sameBits(got[c], wantStarmie[c]) {
					t.Errorf("starmie d%d %s: column %d differs from the reference", dim, st.name, c)
				}
			}
		}
	}
}

// TestCacheConcurrent encodes overlapping inputs from many goroutines, so
// slots are filled, hit and taken over concurrently; run it under -race.
func TestCacheConcurrent(t *testing.T) {
	_, _, inputs := cacheFixture()
	encs := []*Encoder{NewRoBERTa(), NewBERT(), NewRoBERTa(WithAnisotropy(0.05))}
	want := make([][]vector.Vec, len(encs))
	for i, e := range encs {
		for _, toks := range inputs {
			want[i] = append(want[i], refEncodeTokens(e, toks))
		}
	}
	resetCache()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for n := range inputs {
					i := (n*7 + g + r) % len(inputs) // each goroutine walks its own order
					e := (g + n) % len(encs)
					if !sameBits(encs[e].EncodeTokens(inputs[i]), want[e][i]) {
						t.Errorf("goroutine %d: encoder %d input %d differs from the reference", g, e, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEncodeTokensAllocs(t *testing.T) {
	e := NewRoBERTa()
	_, _, inputs := cacheFixture()
	toks := inputs[len(inputs)-1] // the over-budget column: thousands of keys
	resetCache()
	// content, scratch and the output; key hashing and cache misses add none.
	if n := testing.AllocsPerRun(5, func() { resetCache(); e.EncodeTokens(toks) }); n != 3 {
		t.Errorf("EncodeTokens allocated %v times per call, want 3", n)
	}
}

var sinkVec vector.Vec

func BenchmarkEncodeTokens(b *testing.B) {
	e := NewRoBERTa()
	headers, rows := batchRows(64)
	inputs := make([][]string, len(rows))
	for i, r := range rows {
		inputs[i] = TupleTokens(headers, r)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetCache()
			b.StartTimer()
			sinkVec = e.EncodeTokens(inputs[i%len(inputs)])
		}
	})
	b.Run("warm", func(b *testing.B) {
		resetCache()
		for _, toks := range inputs {
			e.EncodeTokens(toks)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkVec = e.EncodeTokens(inputs[i%len(inputs)])
		}
	})
}
