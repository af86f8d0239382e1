package coherence

// Layout reports how d is stored: the lines its dense array covers (0 in
// the set-associative layout) and the ways stored per set (0 in the dense
// layout).
func Layout(d *DeviceDir) (denseLines, ways int) {
	return len(d.dense), len(d.slices[0].tags) / d.sets
}
