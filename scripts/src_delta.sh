#!/usr/bin/env bash
# Prints the lines added, deleted and net under src/ between BASE and the
# working tree (committed and uncommitted changes together), from
# `git diff --numstat`. Binary files count as zero lines; untracked files
# are not seen, so `git add` new files first.
#
# Usage: scripts/src_delta.sh [BASE]   (BASE defaults to HEAD~1)
set -euo pipefail

base=${1:-HEAD~1}
cd "$(git rev-parse --show-toplevel)"

git diff --numstat "$base" -- src/ | awk '
  $1 != "-" { added += $1; deleted += $2 }
  END {
    printf "src/ lines: +%d -%d net %+d\n", added, deleted, added - deleted
  }'
