#!/usr/bin/env bash
# Every export has a caller, and every option a setter.
#
# A top-level `val` in lib/*/M.mli is flagged when no .ml under lib/,
# bin/ or bench/ other than M.ml calls it by a qualified name: `M.v`,
# `A.v` where the file aliases M as A (`module A = ...M`), or plain `v`
# in a file that opens or includes M (`open M`, `let open M in`,
# `M.(...)`). A path prefix (`Adprom.Scoring.v`, `Service.Cluster.v`)
# is part of the same match.
#
# An optional argument `?l` of a `val` in M.mli, top-level or inside a
# `module S : sig ... end` (functors too), is flagged as `M.v?l` (or
# `M.S.v?l`) when no such .ml both calls the value and names `~l` or
# `?l`, unless the value itself is flagged as having no caller. A
# nested value is called as `S.v`, through an alias of S, or plainly
# under `open S`. Values of a `module type` are not checked:
# their callers reach them through whatever module implements it.
#
# A flagged value or option must either go (deleted, dropped from its
# .mli, or its default made a constant) or be listed in
# test/exports.allow as `Module.value  reason` or
# `Module.value?label  reason`, where the reason says what keeps it (a
# spec a test compares against, a test hook, a setting a pinned caller
# passes). The check fails when
#   - a flagged name is not on the allowlist, or
#   - an allowlist line names something that is no longer flagged,
# so the list cannot go stale.
#
# Usage: bash test/exports.sh        (from anywhere; exits 0 when clean)
#        bash test/exports.sh --list (print every flagged name, exit 0)
#
# Two modules of one name in different libraries share their callers.
# Check a deletion by building: the dev profile makes an unused value an
# error (warning 32).
set -eu
cd "$(dirname "$0")/.."

allow=test/exports.allow
flagged=$(mktemp)
called=$(mktemp)
options=$(mktemp)
trap 'rm -f "$flagged" "$called" "$options"' EXIT

ident="[a-z_][A-Za-z0-9_']*"
sources=$(find lib bin bench -name '*.ml' | sort)

# The names a file calls through module $1 (aliases, `open`, `$1.(`).
calls_through() {
  local q=$1 f=$2 names
  names=$(printf '%s\n' "$q" \
    $(sed -n "s/.*module \([A-Z][A-Za-z0-9_']*\) *= *\([A-Z][A-Za-z0-9_']*\.\)*$q\b.*/\1/p" "$f") |
    sort -u | paste -sd'|')
  grep -ohE "\b($names)\.$ident" "$f" | sed 's/.*\.//' || true
  if grep -qE "\b(open|include)!? +([A-Z][A-Za-z0-9_']*\.)*($names)\b|\b($names)\.\(" "$f"; then
    grep -ohE "\b$ident" "$f" || true
  fi
}

for mli in lib/*/*.mli; do
  own=${mli%i}
  mod=$(basename "$mli" .mli)
  mod=${mod^}
  # each optional label of each val, as "path value label", path being
  # M or M.S; the val's text runs to the next item, comment or blank line
  awk -v mod="$mod" '
    function emit(   s, l, p, i) {
      if (name == "" || skip) { name = ""; return }
      p = mod
      for (i = 1; i <= depth; i++) p = p "." stack[i]
      s = text
      while (match(s, /\?[a-z_][A-Za-z0-9_'\'']* *:/)) {
        l = substr(s, RSTART + 1, RLENGTH - 1)
        sub(/ *:$/, "", l)
        print p, name, l
        s = substr(s, RSTART + RLENGTH)
      }
      name = ""
    }
    function comments(   t) {
      t = $0
      incomment += gsub(/\(\*/, "", t) - gsub(/\*\)/, "", t)
    }
    incomment > 0 { comments(); next }
    /^[ \t]*(val|type|module|end|exception|include|external|\(\*)/ || /^[ \t]*$/ { emit() }
    { comments() }
    /^[ \t]*module type .*sig[ \t]*$/ { stack[++depth] = "-"; skip++; next }
    /^[ \t]*module [A-Z].*sig[ \t]*$/ {
      s = $0; sub(/^[ \t]*module /, "", s); sub(/[^A-Za-z0-9_'\''].*/, "", s)
      stack[++depth] = s; next
    }
    /^[ \t]*end([^A-Za-z0-9_]|$)/ { if (depth > 0) { if (stack[depth] == "-") skip--; depth-- }; next }
    /^[ \t]*val / { s = $0; sub(/^[ \t]*val /, "", s); sub(/[ :].*/, "", s); name = s; text = $0; next }
    name != "" { text = text " " $0 }
    END { emit() }
' "$mli" >"$options"
  subs=$(awk '{print $1}' "$options" | grep '\.' | sed 's/.*\.//' | sort -u || true)
  # shellcheck disable=SC2086
  for f in $(grep -lw -- "$mod" $sources | grep -vxF "$own"); do
    {
      calls_through "$mod" "$f" | sed "s/^/$mod /"
      for s in $subs; do
        calls_through "$s" "$f" | sed "s/^/$s /"
      done
      grep -ohE "[~?]$ident" "$f" | sed 's/^./~ /' || true
    } | sort -u | sed "s|^|$f |"
  done >"$called"
  uncalled=$(for v in $(sed -n "s/^val \([A-Za-z0-9_']*\) *:.*/\1/p" "$mli"); do
    grep -qxF -- "$mod $v" <(cut -d' ' -f2- "$called") || echo "$mod.$v"
  done)
  [ -z "$uncalled" ] || printf '%s\n' "$uncalled"
  # an option is set where one file both calls its value and names it;
  # the options of a value flagged as uncalled go with it
  awk -v uncalled="$uncalled" '
    BEGIN { n = split(uncalled, u, "\n"); for (i = 1; i <= n; i++) gone[u[i]] = 1 }
    FILENAME == ARGV[1] { if ($2 == "~") lab[$1, $3] = 1; else call[$1, $2, $3] = 1; files[$1] = 1; next }
    ($1 "." $2) in gone { next }
    {
      q = $1; sub(/.*\./, "", q)
      for (f in files) if (call[f, q, $2] && lab[f, $3]) next
      print $1 "." $2 "?" $3
    }' "$called" "$options"
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
  echo "exported with no caller, or optional with no setter, in lib/, bin/ or bench/ (delete, un-export, or list in $allow with a reason):"
  printf '  %s\n' $missing
  status=1
fi
if [ -n "$stale" ]; then
  echo "listed in $allow but no longer flagged (drop the line):"
  printf '  %s\n' $stale
  status=1
fi
[ $status = 0 ] && echo "every export has a caller and every option a setter: $(wc -l <"$flagged") flagged, all allowed"
exit $status
