// Package chunkstore owns the chunks of one actual-data table: which
// are resident, which are loading, and their memory. The lazy load
// (disk tier first, then the archive), the single flight that lets
// concurrent queries share it, admission to and eviction from the
// recycler, the spill of an evicted chunk and the reuse of its memory
// all happen here; the executor sees only Acquire and Handle.Release.
//
// One lock, Store.mu, guards residency: the map of resident chunks, the
// flights, and the replacement state of every entry (cache.Entry) with
// the recycler's charges — so admission, the replacement of an entry a
// top-up widens, eviction and Clear are each one critical section. A
// hit takes it shared, once. Evicted chunks spill to the disk tier
// after it is released. A second lock, freeMu, guards only the free
// lists of memory.
//
// A Handle references a chunk's memory, not its residency: eviction
// never waits for handles. The memory — an arena holding the chunk's
// plain columns (storage.Arena) — goes to the next load when the last
// reference is released: the residency, every handle and a queued spill
// each hold one. A reference never released leaves the arena to the
// garbage collector. The eager approaches install their chunks as
// permanently resident entries (Install): one chunk map per table.
//
// A chunk is loaded as far as its queries need it: each request names
// the segments it reads (nil: all), and each entry records the segments
// it holds, its coverage (see cache.Covers). A request its entry does
// not cover loads the union of the two, which replaces the entry:
// coverage only grows.
package chunkstore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sommelier/internal/cache"
	"sommelier/internal/fault"
	"sommelier/internal/storage"
)

// Loader is the chunk-access operator of the lazy approach.
type Loader interface {
	// LoadChunkInto extracts the segments segs names (sorted; nil: all)
	// of one chunk in the table's schema, its plain columns in an arena
	// taken from mem, reading through mem's scratch. It returns the
	// relation's coverage: nil when it holds every segment. It gives up
	// when ctx ends.
	LoadChunkInto(ctx context.Context, table string, id int64, segs []int64, mem *storage.ChunkMem) (*storage.Relation, []int64, error)
	// AllChunkIDs enumerates every chunk known for the table.
	AllChunkIDs(table string) []int64
}

// Config wires a store for lazy loading.
type Config struct {
	Loader Loader
	// CacheBytes bounds the recycler; 0 or less keeps nothing resident:
	// every load then lives exactly as long as its handles.
	CacheBytes int64
	Policy     cache.Policy
	// Disk is the second tier (nil: none): evicted chunks spill to it,
	// and a miss is promoted from it before the loader is asked.
	Disk *cache.DiskTier
	// Faults arms the exec.flight and cache.fill points of every load.
	Faults *fault.Injector
}

// Store owns one table's chunks. It is safe for concurrent use.
type Store struct {
	table string
	cfg   Config
	rec   *cache.Recycler

	// mu guards resident, flights, the recycler and the replacement
	// state of every resident entry.
	mu       sync.RWMutex
	resident map[int64]*chunk
	flights  map[int64]*flight

	// Free lists, each at most maxFree long: arenas of released chunks,
	// scratch of finished loads.
	freeMu  sync.Mutex
	arenas  []storage.Arena
	mems    []*storage.ChunkMem
	maxFree int

	hits, misses, reused, allocated, topups, handles atomic.Int64
}

// New returns an empty store for the named table, lazy only once
// configured.
func New(table string) *Store {
	return &Store{
		table:    table,
		resident: make(map[int64]*chunk),
		flights:  make(map[int64]*flight),
		// A free arena is one a load running now could have taken, and
		// loads run at most a couple per core.
		maxFree: 2 * runtime.GOMAXPROCS(0),
	}
}

// Configure wires the store for lazy loading. It must be called before
// the first Acquire, not concurrently with one.
func (s *Store) Configure(cfg Config) {
	s.cfg = cfg
	s.rec = nil
	if cfg.CacheBytes > 0 {
		s.rec = cache.New(cfg.CacheBytes, cfg.Policy)
	}
}

// chunk is one loaded or installed relation, its coverage and the
// references to its memory. bytes is its charge: its columns plus any
// arena capacity beyond them; ent, its replacement state while the
// recycler holds it resident.
type chunk struct {
	ent   cache.Entry
	s     *Store
	id    int64
	rel   *storage.Relation
	segs  []int64
	arena storage.Arena
	bytes int64
	refs  atomic.Int64
}

// unref drops one reference; the last one hands the arena to the next
// load.
func (c *chunk) unref() {
	if c.refs.Add(-1) == 0 {
		c.s.putArena(c.arena)
	}
}

// Handle is a reference to one chunk's memory, valid until Release. The
// zero Handle holds nothing.
type Handle struct {
	c *chunk
	// Loaded marks the Acquire that ran the chunk's load (the leader of
	// its flight); Promoted, a load served by the disk tier.
	Loaded, Promoted bool
}

// Rel is the chunk's relation. It must not be read after Release.
func (h Handle) Rel() *storage.Relation { return h.c.rel }

// Release drops the reference. Releasing a handle twice is a bug.
func (h Handle) Release() {
	if h.c != nil {
		h.c.s.handles.Add(-1)
		h.c.unref()
	}
}

// handle grants a Handle on c, whose reference the caller has taken.
func (s *Store) handle(c *chunk) Handle {
	s.handles.Add(1)
	return Handle{c: c}
}

// ReleaseAll releases every handle of hs.
func ReleaseAll(hs []Handle) {
	for _, h := range hs {
		h.Release()
	}
}

// Install makes rel a permanently resident chunk — the eager
// approaches' data: never admitted to the recycler, never evicted, its
// memory never reused. Installing over a resident chunk replaces it.
func (s *Store) Install(id int64, rel *storage.Relation) {
	c := &chunk{s: s, id: id, rel: rel, bytes: rel.MemSize()}
	c.refs.Store(1)
	s.mu.Lock()
	s.resident[id] = c
	s.mu.Unlock()
}

// TryAcquire returns a handle on a resident chunk covering segs (nil:
// every segment) — a cache hit — and false, counting nothing, when
// there is none.
func (s *Store) TryAcquire(id int64, segs []int64) (Handle, bool) {
	s.mu.RLock()
	c := s.resident[id]
	hit := c != nil && cache.Covers(c.segs, segs)
	if hit {
		c.refs.Add(1)
		if s.rec != nil {
			s.hits.Add(1)
			s.rec.Touch(&c.ent)
		}
	}
	s.mu.RUnlock()
	if !hit {
		return Handle{}, false
	}
	return s.handle(c), true
}

// flight is one chunk load shared by the Acquires arriving while it
// runs (as golang.org/x/sync/singleflight). Its outcome is not kept: an
// Acquire after a failed flight starts a fresh one, so failure memory
// stays with the loader's quarantine.
type flight struct {
	done    chan struct{}
	c       *chunk
	err     error
	segs    []int64 // the segments it loads
	waiters int     // guarded by Store.mu: references to grant on success
	// more, guarded by Store.mu, collects what the waiters need beyond
	// segs: once it lands, the next flight loads all of it, so that
	// narrow and wide requests arriving together cost two loads at most.
	more []int64
}

// Acquire returns a handle on the chunk holding at least the segments
// segs names (nil: every segment), loading it when no resident entry
// covers them — the union of the entry's coverage and segs, so the
// load replaces the entry. Concurrent Acquires of a chunk share one
// load (a waiter whose ctx ends stops waiting; the load goes on for the
// others; a waiter the landed chunk does not cover, or whose leader's
// ctx ended the load, acquires again). A
// loaded chunk is offered to the recycler at once: handles keep its
// memory valid even if it is evicted before they are done.
func (s *Store) Acquire(ctx context.Context, id int64, segs []int64) (Handle, error) {
	if h, ok := s.TryAcquire(id, segs); ok {
		return h, nil
	}
	if s.rec != nil {
		s.misses.Add(1)
	}
	want := segs
	for {
		if err := ctx.Err(); err != nil {
			return Handle{}, err
		}
		s.mu.Lock()
		c := s.resident[id]
		if c != nil && cache.Covers(c.segs, segs) {
			// Another flight just landed it.
			c.refs.Add(1)
			s.mu.Unlock()
			return s.handle(c), nil
		}
		if f := s.flights[id]; f != nil {
			if !cache.Covers(f.segs, segs) {
				f.more = cache.Union(f.more, segs)
			}
			f.waiters++
			s.mu.Unlock()
			h, err := s.wait(ctx, f)
			if err != nil {
				if ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
					continue // the leader gave up, not us: lead afresh
				}
				return h, err
			}
			if cache.Covers(h.c.segs, segs) {
				return h, nil
			}
			h.Release()
			want = cache.Union(want, f.more)
			continue
		}
		if c != nil {
			want = cache.Union(c.segs, want)
		}
		f := &flight{done: make(chan struct{}), segs: want, more: []int64{}}
		s.flights[id] = f
		s.mu.Unlock()
		return s.lead(ctx, id, f)
	}
}

// wait is a waiter's side of a flight: the leader grants it a reference
// when the load succeeds.
func (s *Store) wait(ctx context.Context, f *flight) (Handle, error) {
	select {
	case <-f.done:
		if f.err != nil {
			return Handle{}, f.err
		}
		return s.handle(f.c), nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-f.done: // landed meanwhile, with a reference for us
		if f.c != nil {
			f.c.unref()
		}
	default:
		f.waiters--
	}
	return Handle{}, ctx.Err()
}

// lead runs a flight's load, publishes it to the waiters and makes the
// chunk resident — in place of any entry it widens — as far as the
// recycler admits it.
func (s *Store) lead(ctx context.Context, id int64, f *flight) (Handle, error) {
	t0 := time.Now()
	c, promoted, err := s.load(ctx, id, f.segs)
	var old *chunk
	var evicted []*chunk
	s.mu.Lock()
	delete(s.flights, id)
	if err == nil {
		// One reference for this handle and one per waiter.
		c.refs.Store(int64(1 + f.waiters))
		old, evicted = s.admit(c, time.Since(t0))
	}
	f.c, f.err = c, err
	close(f.done)
	s.mu.Unlock()
	if old != nil {
		s.topups.Add(1)
		old.unref()
	}
	s.spill(evicted)
	if err != nil {
		return Handle{}, err
	}
	h := s.handle(c)
	h.Loaded, h.Promoted = true, promoted
	return h, nil
}

// admit makes c resident, in place of the entry it widens (old), as far
// as the recycler admits it: a chunk larger than the whole cache stays
// transient and leaves the entry in place. It returns old and the
// chunks evicted to make room, whose residency references the caller
// drops. The caller holds mu.
func (s *Store) admit(c *chunk, cost time.Duration) (old *chunk, evicted []*chunk) {
	if s.rec == nil {
		return nil, nil
	}
	old = s.resident[c.id]
	var oldEnt *cache.Entry
	if old != nil {
		oldEnt = &old.ent
	}
	ids, ok := s.rec.Admit(c.id, &c.ent, c.bytes, cost, oldEnt)
	if !ok {
		return nil, nil
	}
	c.refs.Add(1)
	s.resident[c.id] = c
	return old, s.evict(ids)
}

// evict removes the chunks ids names from the resident map, returning
// them. The caller holds mu.
func (s *Store) evict(ids []int64) []*chunk {
	cs := make([]*chunk, len(ids))
	for i, id := range ids {
		cs[i] = s.resident[id]
		delete(s.resident, id)
	}
	return cs
}

// FillError is a load that decoded its chunk but failed to make it
// resident (the cache.fill fault point): it carries the volume the
// caller goes without.
type FillError struct {
	Rows, Bytes int64
	Err         error
}

func (e *FillError) Error() string { return e.Err.Error() }
func (e *FillError) Unwrap() error { return e.Err }

// load ingests the segments segs names of one chunk — a disk-tier
// promote when the tier holds a block covering them, the loader
// otherwise, for the union with the block's coverage — into recycled
// memory. The scratch and any arena the chunk does not claim go back to
// the free lists.
func (s *Store) load(ctx context.Context, id int64, segs []int64) (*chunk, bool, error) {
	// exec.flight fault point: covers the whole ingestion of one chunk.
	if err := checkFault(ctx, s.cfg.Faults, fault.PointFlight); err != nil {
		return nil, false, err
	}
	mem := s.getMem()
	defer s.putMem(mem)
	rel, held := s.cfg.Disk.PromoteInto(id, segs, mem)
	promoted := rel != nil
	if promoted {
		segs = held
	} else {
		// A miss — or a corrupt block, dropped by the tier, whose arena
		// the archive load may write again.
		s.putArena(mem.Arena)
		mem.Arena = storage.Arena{}
		if s.cfg.Loader == nil {
			return nil, false, fmt.Errorf("chunkstore: %s has no loader for chunk %d", s.table, id)
		}
		if held != nil {
			segs = cache.Union(held, segs)
		}
		var err error
		if rel, segs, err = s.cfg.Loader.LoadChunkInto(ctx, s.table, id, segs, mem); err != nil {
			return nil, false, err
		}
	}
	// cache.fill fault point: the chunk arrived and decoded — from either
	// tier — but fails to become resident.
	if err := checkFault(ctx, s.cfg.Faults, fault.PointCacheFill); err != nil {
		if ctx.Err() == nil {
			err = &FillError{Rows: int64(rel.Rows()), Bytes: rel.MemSize(), Err: err}
		}
		return nil, false, err
	}
	a := mem.Arena
	mem.Arena = storage.Arena{}
	slack := 8 * int64(cap(a.Ints)-len(a.Ints)+cap(a.Floats)-len(a.Floats))
	return &chunk{s: s, id: id, rel: rel, segs: segs, arena: a, bytes: rel.MemSize() + slack}, promoted, nil
}

// checkFault applies an injector's decision at point: its delay (cut
// short by ctx) and its error.
func checkFault(ctx context.Context, inj *fault.Injector, point string) error {
	act := inj.Check(point)
	if err := act.Wait(ctx); err != nil {
		return err
	}
	return act.Err
}

// spill hands chunks that stopped being resident to the disk tier —
// the spill holding a reference until the tier has encoded it — and
// drops their residency references. It runs after mu is released.
func (s *Store) spill(cs []*chunk) {
	for _, c := range cs {
		if s.cfg.Disk != nil {
			c.refs.Add(1)
			s.cfg.Disk.Spill(c.id, c.rel, c.segs, c.unref)
		}
		c.unref()
	}
}

// newArena is the store's storage.ChunkMem.NewArena: a free arena with
// at most 1/64 of spare capacity (charged, see load), or a fresh one.
func (s *Store) newArena(ints, floats int) storage.Arena {
	fits := func(have, want int) bool { return have >= want && have-want <= want/64 }
	s.freeMu.Lock()
	for i := len(s.arenas) - 1; i >= 0; i-- {
		a := s.arenas[i]
		if fits(cap(a.Ints), ints) && fits(cap(a.Floats), floats) {
			s.arenas = slices.Delete(s.arenas, i, i+1)
			s.freeMu.Unlock()
			s.reused.Add(1)
			return storage.Arena{Ints: a.Ints[:ints], Floats: a.Floats[:floats]}
		}
	}
	s.freeMu.Unlock()
	s.allocated.Add(1)
	return storage.Arena{Ints: make([]int64, ints), Floats: make([]float64, floats)}
}

func (s *Store) putArena(a storage.Arena) {
	s.freeMu.Lock()
	if cap(a.Ints)+cap(a.Floats) > 0 && len(s.arenas) < s.maxFree {
		s.arenas = append(s.arenas, a)
	}
	s.freeMu.Unlock()
}

func (s *Store) getMem() *storage.ChunkMem {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if n := len(s.mems); n > 0 {
		m := s.mems[n-1]
		s.mems = s.mems[:n-1]
		return m
	}
	return &storage.ChunkMem{NewArena: s.newArena}
}

// putMem returns a load's scratch, with the arena no chunk claimed.
// Until a load has recycled an arena the store is only filling — a
// cache that holds everything loads each chunk once — so the scratch
// goes to the garbage collector rather than stay resident unused.
func (s *Store) putMem(m *storage.ChunkMem) {
	s.putArena(m.Arena)
	m.Arena = storage.Arena{}
	s.freeMu.Lock()
	if len(s.mems) < s.maxFree && s.reused.Load() > 0 {
		s.mems = append(s.mems, m)
	}
	s.freeMu.Unlock()
}

// AllIDs lists every chunk of the table: the loader's enumeration, or
// the resident chunks when there is no loader.
func (s *Store) AllIDs() []int64 {
	if s.cfg.Loader != nil {
		return s.cfg.Loader.AllChunkIDs(s.table)
	}
	return s.IDs()
}

// IDs lists the resident chunks in ascending order.
func (s *Store) IDs() []int64 {
	s.mu.RLock()
	ids := make([]int64, 0, len(s.resident))
	for id := range s.resident {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	slices.Sort(ids)
	return ids
}

// Rows counts the rows of the resident chunks.
func (s *Store) Rows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, c := range s.resident {
		n += c.rel.Rows()
	}
	return n
}

// Stats is the store's gauge block (GET /stats "chunks"): resident
// chunks, those a handle references (a running query), those holding
// a strict subset of their segments, their charged bytes; free arenas, loads
// that wrote into a released chunk's arena or needed a fresh one, and
// loads that widened a resident chunk. Handles counts the handles
// granted and not yet released, evicted chunks' included: zero once
// every query has finished.
type Stats struct {
	Resident        int   `json:"resident"`
	Pinned          int   `json:"pinned"`
	Handles         int64 `json:"handles"`
	Partial         int   `json:"partial"`
	ResidentBytes   int64 `json:"resident_bytes"`
	FreeArenas      int   `json:"free_arenas"`
	ArenasReused    int64 `json:"arenas_reused"`
	ArenasAllocated int64 `json:"arenas_allocated"`
	Topups          int64 `json:"topups"`
}

// Stats snapshots the gauges.
func (s *Store) Stats() Stats {
	var st Stats
	s.mu.RLock()
	for _, c := range s.resident {
		st.Resident++
		st.ResidentBytes += c.bytes
		if c.refs.Load() > 1 {
			st.Pinned++
		}
		if c.segs != nil {
			st.Partial++
		}
	}
	s.mu.RUnlock()
	s.freeMu.Lock()
	st.FreeArenas = len(s.arenas)
	s.freeMu.Unlock()
	st.ArenasReused, st.ArenasAllocated = s.reused.Load(), s.allocated.Load()
	st.Topups, st.Handles = s.topups.Load(), s.handles.Load()
	return st
}

// CacheStats reports the recycler's activity with the store's hit and
// miss counts (all zero without a recycler).
func (s *Store) CacheStats() cache.Stats {
	var st cache.Stats
	if s.rec != nil {
		s.mu.RLock()
		st = s.rec.Stats()
		s.mu.RUnlock()
	}
	st.Hits, st.Misses = s.hits.Load(), s.misses.Load()
	return st
}

// Clear evicts every cached chunk — spilling them to the disk tier —
// as after a restart without one.
func (s *Store) Clear() {
	if s.rec == nil {
		return
	}
	s.mu.Lock()
	cs := s.evict(s.rec.Clear())
	s.mu.Unlock()
	s.spill(cs)
}

// Flush writes every resident chunk to the disk tier and waits until
// it has: the Close-time flush of a working set never evicted.
func (s *Store) Flush() {
	if s.cfg.Disk == nil {
		return
	}
	var hs []Handle
	for _, id := range s.IDs() {
		// A request for no segment is covered by whatever a chunk holds.
		if h, ok := s.TryAcquire(id, []int64{}); ok {
			hs = append(hs, h)
			s.cfg.Disk.SpillSync(id, h.Rel(), h.c.segs...)
		}
	}
	s.cfg.Disk.WaitIdle()
	ReleaseAll(hs)
}
