// Bare machine capture/restore: the verification farm's bisector needs to
// snapshot a machine at an exact retired-instruction boundary and later
// rebuild an identical machine, without the per-job Runtime's pointer
// files, exec replay, or console teeing. Capture serializes just pages +
// architectural state into one self-contained pack; because pages go in
// ascending order and the document is canonical JSON, two machines that
// executed the same retirement history produce the same digest — digest
// comparison IS state comparison, which is what lets the bisector walk
// checkpoint boundaries cheaply.
package checkpoint

import (
	"firemarshal/internal/cas"
	"firemarshal/internal/sim"
)

// Capture snapshots the machine's memory pages and architectural state
// into the store as one pack that names no other, and returns the
// checkpoint plus the pack's digest. The digest is a pure function of
// (job, mapped pages, arch state): machines in the same state capture to
// the same digest.
func Capture(store *cas.Store, job string, m *sim.Machine) (*Checkpoint, string, error) {
	cp := &Checkpoint{Job: job, Arch: m.SaveArch()}
	digest, err := writePack(store, cp, m.Mem, nil, nil)
	if err != nil {
		return nil, "", err
	}
	return cp, digest, nil
}

// Restore rebuilds the captured state onto m: memory is reset to exactly
// the captured pages and the architectural state reinstalled (predecode
// and trace caches rebuilt via RestoreArch). The machine must already
// have its devices/syscall environment configured; Restore only touches
// memory and architectural state, and not even those if it fails.
func (cp *Checkpoint) Restore(store *cas.Store, m *sim.Machine) error {
	pages, err := cp.pageData(store)
	if err != nil {
		return err
	}
	cp.install(m, pages)
	return nil
}
