#!/bin/sh
# Check that the working tree writes the same CLI fixture bytes as REF.
#
#     tools/same_bytes.sh [REF]
#
# REF is any commit git can resolve; it defaults to HEAD. The script
# checks REF out with `git worktree add --detach` into a temporary
# directory, writes the fixture set of that checkout and of the working
# tree with tools/cli_fixtures.sh (the working tree's copy, for both),
# prints `diff -r` of the two sets and exits with diff's status: 0 for
# the same bytes, 1 for a difference. The worktree and both sets are
# removed on exit. Nothing is fetched, so it runs offline.
#
# A difference means the change moved an output: a number in a stdout or
# JSON report, a feature, a checkpoint byte or a manifest key. A change
# that is meant to keep every output should leave none; one that changes
# an output on purpose should differ in exactly the files it names. The
# bytes depend on the numpy and BLAS build, and both sets are made here
# on one machine.
set -eu

if [ "$#" -gt 1 ]; then
    echo "usage: $0 [REF]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
ref=${1:-HEAD}
tmp=$(mktemp -d)

cleanup() {
    git -C "$root" worktree remove --force "$tmp/ref" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --quiet --detach "$tmp/ref" "$ref"
sh "$root/tools/cli_fixtures.sh" "$tmp/ref" "$tmp/ref-fixtures"
sh "$root/tools/cli_fixtures.sh" "$root" "$tmp/tree-fixtures"
status=0
diff -r "$tmp/ref-fixtures" "$tmp/tree-fixtures" || status=$?
exit "$status"
