package storage

// Chunk memory. A chunk load — a disk-tier promote, an archive fetch
// and decode — writes the chunk's plain columns, which live as long as
// the chunk, and scratch (the bytes read, the samples decoded), free
// once it returns. ChunkMem carries both, so the chunks' owner
// (internal/chunkstore) can hand them to the next load instead of the
// garbage collector. A nil *ChunkMem allocates afresh.

// Arena is the backing of one chunk's plain columns: every int64 and
// timestamp column is a slice of Ints, every float64 column a slice of
// Floats, cut in order. The decoders write every element, so a recycled
// arena needs no zeroing.
type Arena struct {
	Ints   []int64
	Floats []float64
}

// ChunkMem is the memory one chunk load writes into.
type ChunkMem struct {
	// Buf (a block body, a miniSEED file) and Samples are scratch,
	// grown in place when too small.
	Buf     []byte
	Samples []int32
	// NewArena, when set, supplies the arena — recycled when its owner
	// has one that fits; nil allocates.
	NewArena func(ints, floats int) Arena
	// Arena is the arena the load took: it must live as long as the
	// loaded chunk.
	Arena Arena
}

// TakeArena returns an arena of exactly ints int64 and floats float64
// values and records it as the load's.
func (m *ChunkMem) TakeArena(ints, floats int) Arena {
	if m == nil || m.NewArena == nil {
		a := Arena{Ints: make([]int64, ints), Floats: make([]float64, floats)}
		if m != nil {
			m.Arena = a
		}
		return a
	}
	m.Arena = m.NewArena(ints, floats)
	return m.Arena
}

// Bytes returns m.Buf resized to n bytes, growing it when too small.
func (m *ChunkMem) Bytes(n int) []byte {
	if m == nil {
		return make([]byte, n)
	}
	if cap(m.Buf) < n {
		m.Buf = make([]byte, n)
	}
	m.Buf = m.Buf[:n]
	return m.Buf
}

// carve cuts the next n values off the front of *s. The piece's
// capacity ends where it does, so nothing appended to it can reach the
// values after it.
func carve[T any](s *[]T, n int) []T {
	v := (*s)[:n:n]
	*s = (*s)[n:]
	return v
}
