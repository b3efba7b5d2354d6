package estimate

// MemoKeys returns the texts of every key the memo holds: each scope and
// each preference condition.
func (e *Estimator) MemoKeys() []string {
	pm := e.memo.Load()
	pm.mu.RLock()
	defer pm.mu.RUnlock()
	keys := make([]string, 0, 2*len(pm.m))
	for k := range pm.m {
		keys = append(keys, k.scope, k.pref)
	}
	return keys
}
