package cache

import "slices"

// A coverage names the segments of a chunk that a loaded relation holds
// every row of: sorted, distinct segment IDs, or nil for every segment
// of the chunk. A RAM entry and a disk-tier block each carry one, and a
// load of a chunk asks for one.

// Covers reports whether coverage have holds every segment of want.
func Covers(have, want []int64) bool {
	if have == nil {
		return true
	}
	if want == nil {
		return false
	}
	for _, w := range want {
		if _, ok := slices.BinarySearch(have, w); !ok {
			return false
		}
	}
	return true
}

// Union is the coverage holding both a and b.
func Union(a, b []int64) []int64 {
	if a == nil || b == nil {
		return nil
	}
	u := append(append(make([]int64, 0, len(a)+len(b)), a...), b...)
	slices.Sort(u)
	return slices.Compact(u)
}
