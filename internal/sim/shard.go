package sim

import "runtime"

// autoShardMinNodes is the cluster size below which auto-sharding stays
// serial. The dense-index engine moved per-node work out of the sharded
// loop (rates and caps are per-job, measurement is a per-job sum), so the
// oracle's per-step progress advance costs a few nanoseconds per busy
// node — even the persistent worker pool's wake/barrier round trip (see
// pool.go) only pays for itself in the tens of thousands of nodes. Results are
// bit-identical at every setting, so the threshold is purely a
// performance knob.
const autoShardMinNodes = 16384

// resolveShards picks the worker count for the intra-step node loops.
// An explicit positive request is honored (capped at the node count, so
// tests can force sharding on small clusters); zero means auto —
// GOMAXPROCS when the cluster is large enough to pay for the barrier,
// serial otherwise.
func resolveShards(requested, nodes int) int {
	s := requested
	if s <= 0 {
		if nodes < autoShardMinNodes {
			return 1
		}
		s = runtime.GOMAXPROCS(0)
	}
	if s > nodes {
		s = nodes
	}
	if s < 1 {
		s = 1
	}
	return s
}
