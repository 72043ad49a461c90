#!/usr/bin/env bash
# checkkernel.sh — kernel regression gate (`make kernel-gate`).
#
# Benchmarks the batched verification kernel (BenchmarkOnBatch, the
# baked slot-record hot path) in the working tree against the same
# benchmark built from a control commit on the same host, and fails if
# the change's ns/event exceeds the control's by more than KERNEL_TOL
# percent (default 15). An absolute baseline captured on another
# machine says nothing about this one; a paired control does.
#
# The control is `git merge-base HEAD main` — the commit the change
# branched from — or HEAD~1 when that is HEAD itself (the change is
# already on main). It is checked out into a temporary git worktree,
# removed on exit. Both test binaries are built up front, then run
# interleaved KERNEL_COUNT times (default 6) so host-speed drift hits
# both sides alike; best-of-N is the estimator on each side, so a
# single noisy run cannot flake the gate — only a real kernel
# regression shifts the best of six.
set -euo pipefail
cd "$(dirname "$0")/.."

TOL="${KERNEL_TOL:-15}"
COUNT="${KERNEL_COUNT:-6}"

control=$(git merge-base HEAD main 2>/dev/null || true)
if [ -z "$control" ] || [ "$control" = "$(git rev-parse HEAD)" ]; then
	control=$(git rev-parse HEAD~1)
fi

tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/control" >/dev/null 2>&1 || true
	git worktree prune >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --detach --quiet "$tmp/control" "$control"
(cd "$tmp/control" && go test -c -o "$tmp/control.test" ./internal/ipds)
go test -c -o "$tmp/change.test" ./internal/ipds

# bench runs one side once from its package directory and prints its
# ns/event.
bench() {
	(cd "$2/internal/ipds" && "$1" -test.run '^$' -test.bench 'BenchmarkOnBatch$' -test.count 1) |
		awk '/^BenchmarkOnBatch(-[0-9]+)?[ \t]/ {
			for (i = 2; i <= NF; i++) if ($i == "ns/event") print $(i - 1)
		}'
}

best_control="" best_change=""
for i in $(seq "$COUNT"); do
	c=$(bench "$tmp/control.test" "$tmp/control")
	n=$(bench "$tmp/change.test" "$PWD")
	if [ -z "$c" ] || [ -z "$n" ]; then
		echo "checkkernel: failed to parse ns/event from benchmark output" >&2
		exit 1
	fi
	echo "checkkernel: run $i: control ${c} ns/event, change ${n} ns/event"
	best_control=$(awk -v a="$c" -v b="$best_control" 'BEGIN { print (b == "" || a + 0 < b + 0) ? a : b }')
	best_change=$(awk -v a="$n" -v b="$best_change" 'BEGIN { print (b == "" || a + 0 < b + 0) ? a : b }')
done

echo "checkkernel: best of ${COUNT}: change ${best_change} ns/event, control ${best_control} ns/event at $(git rev-parse --short "$control") (tolerance ${TOL}%)"
if ! awk -v got="$best_change" -v base="$best_control" -v tol="$TOL" 'BEGIN {
	limit = base * (1 + tol / 100)
	printf "checkkernel: limit %.2f ns/event\n", limit
	exit !(got + 0 <= limit)
}'; then
	echo "checkkernel: FAIL — batched kernel regressed past the tolerance" >&2
	exit 1
fi
echo "checkkernel: batched kernel holds its control"
