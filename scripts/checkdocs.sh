#!/bin/sh
# checkdocs.sh - CI gate: every exported declaration in the analysis,
# table, runtime, pipeline and cache packages must carry a doc comment,
# and the server_* metric names in the Go code and the docs must agree.
#
# A line starting a top-level exported func/type whose preceding line is
# not a comment is flagged. Test files are exempt (Go test names are
# their own documentation). Exits non-zero listing offenders.
set -eu
cd "$(dirname "$0")/.."

PKGS="internal/core internal/tables internal/ipds internal/pipeline internal/tcache internal/obs internal/obs/tsdb internal/incident internal/ring internal/server internal/fleet internal/registry"

fail=0
for pkg in $PKGS; do
    for f in "$pkg"/*.go; do
        case "$f" in
        *_test.go) continue ;;
        esac
        out=$(awk '
            /^(func|type) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
                if (prev !~ /^\/\//) printf "%s:%d: undocumented export: %s\n", FILENAME, FNR, $0
            }
            { prev = $0 }
        ' "$f")
        if [ -n "$out" ]; then
            echo "$out"
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "checkdocs: undocumented exported declarations found" >&2
    exit 1
fi

# The performance handbook must stay linked from the README and keep
# its generated-table markers (benchtable rewrites between them).
grep -q 'docs/PERFORMANCE.md' README.md || {
    echo "checkdocs: README.md does not link docs/PERFORMANCE.md" >&2
    exit 1
}
grep -q 'benchtable:begin' docs/PERFORMANCE.md || {
    echo "checkdocs: docs/PERFORMANCE.md lacks the benchtable markers" >&2
    exit 1
}

# Metric names: every server_* series the Go code registers must be
# documented in DESIGN.md, and every server_* name the docs cite must
# be registered, so a deleted or renamed series cannot linger in them.
registered=$(find . -name '*.go' ! -name '*_test.go' ! -path './.*' -exec grep -ohE '"server_[a-z0-9_]+"' {} + | tr -d '"' | sort -u)
if [ -z "$registered" ]; then
    echo "checkdocs: found no registered server_* metric names" >&2
    exit 1
fi
design=$(grep -ohE 'server_[a-z0-9_]+' DESIGN.md | sort -u)
cited=$(grep -ohE 'server_[a-z0-9_]+' DESIGN.md README.md docs/*.md | sort -u)
undocumented=$(printf '%s\n' "$registered" | grep -vxF -e "$design" || true)
unregistered=$(printf '%s\n' "$cited" | grep -vxF -e "$registered" || true)
if [ -n "$undocumented" ] || [ -n "$unregistered" ]; then
    [ -z "$undocumented" ] || printf 'checkdocs: registered but not in DESIGN.md: %s\n' $undocumented >&2
    [ -z "$unregistered" ] || printf 'checkdocs: documented but never registered: %s\n' $unregistered >&2
    exit 1
fi

echo "checkdocs: all exports documented in: $PKGS"
echo "checkdocs: $(printf '%s\n' "$registered" | wc -l | tr -d ' ') server_* metric names registered and documented"
