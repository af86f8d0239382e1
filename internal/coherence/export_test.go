package coherence

// Layout reports how d is stored: the lines its dense array covers (0 in
// the set-associative layout) and the ways stored per set (0 in the dense
// layout).
func Layout(d *DeviceDir) (denseLines, ways int) {
	if d.tags == nil {
		return len(d.meta), 0
	}
	return 0, len(d.tags) / (int(d.setMask+1) * len(d.slices))
}
