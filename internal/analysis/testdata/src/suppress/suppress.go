// Package suppress exercises the suppression machinery itself:
// file-level //lint:file-ignore directives, used line directives, and
// the stale-suppression check that keeps silenced findings from
// outliving their fix.
//
//lint:file-ignore errlost fixture: every dropped error below is deliberate
package suppress

type res struct{}

func (*res) Close() error             { return nil }
func (*res) Next() (int, bool, error) { return 0, false, nil }

// fileIgnored drops lifecycle errors with impunity: the file-level
// directive covers the whole file, so none of these may surface.
func fileIgnored(r *res) {
	r.Close()
	go r.Close()
	v, ok, _ := r.Next()
	_, _ = v, ok
}

// clean has nothing to suppress, so its directive is stale — but only
// directives naming analyzers in the run set are reported, so the
// lockio one below stays quiet when only errlost runs.
func clean(r *res) error {
	//lint:ignore errlost nothing on the next line drops an error // want `stale suppression`
	err := r.Close()
	//lint:ignore lockio not in the run set, so never reported as stale
	return err
}

// misnamed carries directives naming no analyzer — one invented, one a
// misspelling of errlost. They suppress nothing, so they are reported
// whatever the run set.
func misnamed(r *res) error {
	//lint:ignore nosuchanalyzer not an analyzer // want `names no analyzer`
	err := r.Close()
	//lint:ignore errlots misspelled // want `names no analyzer`
	return err
}
