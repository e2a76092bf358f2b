package sommelier

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// funcAtomic matches a call of sync/atomic's function style, which
// works on a plain variable that other code may then read plainly.
var funcAtomic = regexp.MustCompile(`atomic\.(Add|Load|Store|Swap|CompareAndSwap)[A-Z]`)

// TestTypedAtomicsOnly: every atomic in the module is a typed atomic
// (atomic.Int64, atomic.Pointer, ...), whose value no code can read or
// write plainly; no .go file calls the function-style API.
func TestTypedAtomicsOnly(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build caches
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for i, line := range strings.Split(string(src), "\n") {
			if funcAtomic.MatchString(line) {
				t.Errorf("%s:%d: function-style sync/atomic call; use a typed atomic", path, i+1)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
