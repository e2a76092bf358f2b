// Package releasecheck is the golden fixture for the releasecheck
// analyzer: callers of the exec/engine query entry points must
// release the result they are handed.
package releasecheck

import (
	"context"

	"sommelier/internal/engine"
	"sommelier/internal/exec"
	"sommelier/internal/plan"
)

// leakOnStats reads the result but never releases it.
func leakOnStats(env *exec.Env, p *plan.Plan) (int, error) {
	res, err := exec.Execute(context.Background(), env, p, exec.Options{}) // want "query result \"res\" from Execute is not released on every path"
	if err != nil {
		return 0, err
	}
	return res.Rows(), nil
}

// discardedRun throws the result away entirely.
func discardedRun(env *exec.Env, p *plan.Plan) {
	exec.Execute(context.Background(), env, p, exec.Options{}) // want "result of Execute is discarded"
}

// doubleRelease releases twice.
func doubleRelease(env *exec.Env, p *plan.Plan) error {
	res, err := exec.Execute(context.Background(), env, p, exec.Options{})
	if err != nil {
		return err
	}
	res.Release()
	res.Release() // want "query result \"res\" may already be released here"
	return nil
}

// engineLeak leaks through the engine facade.
func engineLeak(db *engine.DB) (int, error) {
	res, err := db.Query("SELECT 1") // want "query result \"res\" from Query is not released on every path"
	if err != nil {
		return 0, err
	}
	return res.Rows(), nil
}

// clean releases after the last read.
func clean(env *exec.Env, p *plan.Plan) (int, error) {
	res, err := exec.Execute(context.Background(), env, p, exec.Options{})
	if err != nil {
		return 0, err
	}
	n := res.Rows()
	res.Release()
	return n, nil
}

// cleanDefer releases via defer, the idiomatic shape.
func cleanDefer(env *exec.Env, p *plan.Plan) (int, error) {
	res, err := exec.Execute(context.Background(), env, p, exec.Options{})
	if err != nil {
		return 0, err
	}
	defer res.Release()
	return res.Rows(), nil
}

// cleanHandoff returns the result; the caller owns it now.
func cleanHandoff(env *exec.Env, p *plan.Plan) (*exec.Result, error) {
	return exec.Execute(context.Background(), env, p, exec.Options{})
}

// suppressedLeak documents a result another component releases.
func suppressedLeak(env *exec.Env, p *plan.Plan) {
	//sommelier:ownership-transferred the response writer releases after rendering
	res, _ := exec.Execute(context.Background(), env, p, exec.Options{})
	_ = res
}
