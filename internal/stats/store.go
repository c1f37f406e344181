package stats

// Store returns the snapshot store a component's Snapshot received (the
// workload.Rewindable protocol: the store of its previous capture, or nil
// for the first), allocating a new T on the first capture so repeated
// snapshots reuse one store.
func Store[T any](store any) *T {
	if sn, _ := store.(*T); sn != nil {
		return sn
	}
	return new(T)
}

// Capture copies v into the pooled store and returns the store: the
// whole Snapshot of a component whose per-run state is the one value v.
// Its Restore is one assignment, x = *store.(*T).
func Capture[T any](store any, v T) any {
	sn := Store[T](store)
	*sn = v
	return sn
}
