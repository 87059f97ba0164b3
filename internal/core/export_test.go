package core

// EpochTables exposes a graph's per-epoch closure, adjacency, TCB and
// stamp tables to the external tests. The slices are the graph's own.
func EpochTables(g *Graph) (closure, zoneAdj, chainTCB [][]int32, chainStamp []int64) {
	return g.closure, g.zoneAdj, g.chainTCB, g.chainStamp
}

// RecomputeFromScratch recomputes g's closure, adjacency and TCB tables
// with no previous epoch — every zone dirty — over the host chains
// visible at g's epoch. Every stamp of the result is g's epoch.
func RecomputeFromScratch(g *Graph) *Graph {
	r := &Graph{
		st:       g.st,
		epoch:    g.epoch,
		hosts:    g.hosts,
		zones:    g.zones,
		chains:   g.chains,
		zoneNS:   g.zoneNS,
		numNames: g.numNames,
	}
	hostChain := make([][]int32, len(g.hosts))
	for h := range hostChain {
		hostChain[h] = g.hostChainOf(int32(h))
	}
	changed := r.computeClosures(nil, hostChain, nil)
	r.computeChainTCBs(nil, nil, changed)
	return r
}
