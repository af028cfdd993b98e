#!/usr/bin/env bash
# bench-guard: keep pinned-table moves auditable.
#
# Every commit that touches a golden table under tests/golden/ must carry
# the "[bench-baseline]" marker in its subject — pinned numbers and trace
# hashes are regenerated in their own commit, never smuggled in with code
# changes, so the history of tests/golden/ stays a readable record of
# deliberate cost-model and behaviour moves.
#
# Usage: scripts/bench_guard.sh [<rev-range>]
#   With no range: origin/$GITHUB_BASE_REF...HEAD on pull requests,
#   HEAD~1..HEAD otherwise (push to main lands one commit at a time).
set -euo pipefail

range="${1:-}"
if [ -z "$range" ]; then
  if [ -n "${GITHUB_BASE_REF:-}" ]; then
    git fetch -q origin "$GITHUB_BASE_REF"
    range="origin/${GITHUB_BASE_REF}...HEAD"
  else
    range="HEAD~1..HEAD"
  fi
fi

bad=0
for commit in $(git rev-list "$range" 2>/dev/null); do
  files=$(git diff-tree --no-commit-id --name-only -r "$commit" \
    | grep -E '^tests/golden/' || true)
  [ -z "$files" ] && continue
  subject=$(git log -1 --format=%s "$commit")
  case "$subject" in
    *"[bench-baseline]"*) ;;
    *)
      echo "::error::commit ${commit:0:12} touches $(echo "$files" | tr '\n' ' ')without [bench-baseline] in its subject: $subject"
      bad=1
      ;;
  esac
done

if [ "$bad" -ne 0 ]; then
  echo "bench-guard: regenerate tests/golden/ tables in a dedicated commit whose subject contains [bench-baseline]"
  exit 1
fi
echo "bench-guard: all tests/golden/ changes in $range carry the [bench-baseline] marker"
