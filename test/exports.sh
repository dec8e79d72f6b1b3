#!/usr/bin/env bash
# Every export has a caller.
#
# A top-level `val` in lib/*/*.mli is flagged when no .ml under lib/,
# bin/ or bench/ other than its own module's implementation names it as
# a word. A flagged value must either go (deleted, or dropped from its
# .mli) or be listed in test/exports.allow as `Module.value  reason`,
# where the reason says what keeps it (a spec a test compares against,
# a test hook). The check fails when
#   - a flagged value is not on the allowlist, or
#   - an allowlist line names a value that is no longer flagged,
# so the list cannot go stale.
#
# Usage: bash test/exports.sh        (from anywhere; exits 0 when clean)
#        bash test/exports.sh --list (print every flagged value, exit 0)
#
# The match is by word, so it cannot tell values of the same name
# apart: a value whose name another module also uses is never flagged,
# even when nothing calls it. Check a deletion by building: the dev
# profile makes an unused value an error (warning 32).
set -eu
cd "$(dirname "$0")/.."

allow=test/exports.allow
flagged=$(mktemp)
trap 'rm -f "$flagged"' EXIT

sources=$(find lib bin bench -name '*.ml' | sort)
for mli in lib/*/*.mli; do
  own=${mli%i}
  mod=$(basename "$mli" .mli)
  others=$(printf '%s\n' $sources | grep -vxF "$own")
  for v in $(sed -n "s/^val \([A-Za-z0-9_']*\) *:.*/\1/p" "$mli"); do
    # shellcheck disable=SC2086
    grep -qwF -- "$v" $others || echo "${mod^}.$v"
  done
done | sort -u >"$flagged"

if [ "${1:-}" = --list ]; then
  cat "$flagged"
  exit 0
fi

allowed=$(grep -v '^[[:space:]]*\(#\|$\)' "$allow" | awk '{print $1}' | sort -u)
missing=$(comm -23 "$flagged" <(printf '%s\n' "$allowed" | sed '/^$/d'))
stale=$(comm -13 "$flagged" <(printf '%s\n' "$allowed" | sed '/^$/d'))
status=0
if [ -n "$missing" ]; then
  echo "exported with no caller in lib/, bin/ or bench/ (delete, un-export, or list in $allow with a reason):"
  printf '  %s\n' $missing
  status=1
fi
if [ -n "$stale" ]; then
  echo "listed in $allow but no longer flagged (drop the line):"
  printf '  %s\n' $stale
  status=1
fi
[ $status = 0 ] && echo "every export has a caller: $(wc -l <"$flagged") flagged, all allowed"
exit $status
