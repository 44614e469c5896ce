#!/usr/bin/env bash
# Smoke check, ready for CI: every workload at -quick size, untraced and
# traced, with no failed operation, and the simulator digest equal across
# two runs of one seed and different across seeds. No timing is asserted.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

bash "$here/run.sh" -quick -seconds 1 -seed 1

digest() {
	bash "$here/run.sh" -quick -seconds 1 -workload sim-policy -seed "$1" |
		grep -o 'sim.result_digest [0-9a-f]*'
}
a="$(digest 1)"
b="$(digest 1)"
c="$(digest 2)"
if [ "$a" != "$b" ]; then
	echo "smoke: seed 1 gave two digests: $a / $b" >&2
	exit 1
fi
if [ "$a" = "$c" ]; then
	echo "smoke: seeds 1 and 2 gave the same digest $a" >&2
	exit 1
fi
echo "smoke: ok ($a)"
