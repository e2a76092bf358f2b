package exec

// Release is what remains of the collected result's chunk handles. A
// Result owns its rows and holds no handle, so it does nothing. The
// service benchmark (bench/check.go, bench/layers.go) still calls it; it
// goes with the benchmark's next change.

// Release does nothing: a Result's rows are its own.
func (r *Result) Release() {}
