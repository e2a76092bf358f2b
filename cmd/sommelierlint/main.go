// Command sommelierlint is sommelier's static-analysis gate. It runs
// two ways:
//
//	go vet -vettool=$(pwd)/bin/sommelierlint ./...   # the CI path
//	sommelierlint ./internal/...                     # standalone
//
// The suite is one analyzer, atomicguard: a field accessed through
// sync/atomic anywhere is never accessed plainly. See internal/analysis
// and the "Static analysis" section of PERFORMANCE.md.
package main

import "sommelier/internal/analysis"

func main() {
	analysis.Main(analysis.All)
}
