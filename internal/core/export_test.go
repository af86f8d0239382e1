package core

// SetOwnerTag rewrites page's owner tag in the shared local store to host h
// (NoHost to clear) and nothing else, so tests can seed a remap-table
// disagreement.
func SetOwnerTag(m *Manager, page int64, h int) {
	m.local[0].s.owner[page] = uint16(h + 1)
}
