#!/usr/bin/env bash
# Every export has a caller.
#
# A top-level `val` in lib/*/M.mli is flagged when no .ml under lib/,
# bin/ or bench/ other than M.ml calls it by a qualified name: `M.v`,
# `A.v` where the file aliases M as A (`module A = ...M`), or plain `v`
# in a file that opens or includes M (`open M`, `let open M in`,
# `M.(...)`). A path prefix (`Adprom.Scoring.v`, `Service.Cluster.v`)
# is part of the same match. A flagged value must either go (deleted,
# or dropped from its .mli) or be listed in test/exports.allow as
# `Module.value  reason`, where the reason says what keeps it (a spec a
# test compares against, a test hook). The check fails when
#   - a flagged value is not on the allowlist, or
#   - an allowlist line names a value that is no longer flagged,
# so the list cannot go stale.
#
# Usage: bash test/exports.sh        (from anywhere; exits 0 when clean)
#        bash test/exports.sh --list (print every flagged value, exit 0)
#
# Two modules of one name in different libraries share their callers.
# Check a deletion by building: the dev profile makes an unused value an
# error (warning 32).
set -eu
cd "$(dirname "$0")/.."

allow=test/exports.allow
flagged=$(mktemp)
called=$(mktemp)
trap 'rm -f "$flagged" "$called"' EXIT

ident="[a-z_][A-Za-z0-9_']*"
sources=$(find lib bin bench -name '*.ml' | sort)
for mli in lib/*/*.mli; do
  own=${mli%i}
  mod=$(basename "$mli" .mli)
  mod=${mod^}
  # shellcheck disable=SC2086
  for f in $(grep -lw -- "$mod" $sources | grep -vxF "$own"); do
    names=$(printf '%s\n' "$mod" \
      $(sed -n "s/.*module \([A-Z][A-Za-z0-9_']*\) *= *\([A-Z][A-Za-z0-9_']*\.\)*$mod\b.*/\1/p" "$f") |
      sort -u | paste -sd'|')
    grep -ohE "\b($names)\.$ident" "$f" | sed 's/.*\.//' || true
    if grep -qE "\b(open|include)!? +([A-Z][A-Za-z0-9_']*\.)*($names)\b|\b($names)\.\(" "$f"; then
      grep -ohE "\b$ident" "$f" || true
    fi
  done | sort -u >"$called"
  for v in $(sed -n "s/^val \([A-Za-z0-9_']*\) *:.*/\1/p" "$mli"); do
    grep -qxF -- "$v" "$called" || echo "$mod.$v"
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
