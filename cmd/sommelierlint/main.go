// Command sommelierlint is sommelier's static-analysis gate. It runs
// two ways:
//
//	go vet -vettool=$(pwd)/bin/sommelierlint ./...   # the CI path
//	sommelierlint ./internal/...                     # standalone
//
// The suite: selalias (no retained or stale alias of a batch's pooled
// selection vector), releasecheck (query results are released, so
// their chunk memory can be reused), atomicguard (no mixed
// atomic/plain access). See internal/analysis and the "Static
// analysis" section of PERFORMANCE.md.
package main

import "sommelier/internal/analysis"

func main() {
	analysis.Main(analysis.All)
}
