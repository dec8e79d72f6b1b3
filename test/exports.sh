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
# `M.S.v?l`) when no call to the value in such a .ml passes `~l` or
# `?l` in its own argument list, unless the value itself is flagged as
# having no caller. A nested value is called as `S.v`, through an alias
# of S, or plainly under `open S`. Values of a `module type` are not
# checked: their callers reach them through whatever module implements
# it.
#
# A call's argument list is approximated on the file's tokens
# (comments, strings and character literals dropped): it runs from the
# value's name to the first token, outside any bracket the list itself
# opened, that closes an enclosing bracket or cannot continue an
# application (`;`, `,`, `in`, `let`, `then`, `|`, `->`, an infix
# operator, ...). Only labels outside the list's own brackets count, so
# in `f ~a (g ~b)` the call to g passes ~b and the call to f does not.
# A value passed as a function and applied elsewhere is not followed,
# and under `open M` a local binding that shadows `v` counts as a call.
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
tokens=$(mktemp -d)
trap 'rm -rf "$flagged" "$called" "$options" "$tokens"' EXIT

ident="[a-z_][A-Za-z0-9_']*"
sources=$(find lib bin bench -name '*.ml' | sort)

# Each source as its tokens, one a line, in $tokens/<path, / as %>:
# identifiers with their module path (`A.B.v`), labels (`~l`, `?l`),
# brackets (`[|` as `[`, `|]` as `]`), `;`, `,` and operator runs;
# literals become `0`; comments and strings are dropped.
# shellcheck disable=SC2086
awk -v dir="$tokens" '
  FNR == 1 { if (out != "") close(out); out = FILENAME; gsub("/", "%", out); out = dir "/" out; printf "" >out }
  {
    s = $0
    while (s != "") {
      if (depth > 0) {
        if (match(s, /\(\*|\*\)/)) { depth += substr(s, RSTART, 2) == "(*" ? 1 : -1; s = substr(s, RSTART + 2) }
        else s = ""
        continue
      }
      if (instr) {
        if (match(s, /^([^"\\]|\\.)*"/)) { instr = 0; s = substr(s, RLENGTH + 1) } else s = ""
        continue
      }
      if (match(s, /^[ \t]+/)) t = ""
      else if (substr(s, 1, 2) == "(*") { depth = 1; RLENGTH = 2; t = "" }
      else if (substr(s, 1, 1) == "\"") { instr = 1; RLENGTH = 1; t = "" }
      else if (match(s, /^'\''([^'\''\\]|\\[^'\'']+)'\''/) || match(s, /^[0-9][0-9A-Za-z_.]*([eE][-+]?[0-9]+)?/)) t = "0"
      else if (match(s, /^[~?][a-z_][A-Za-z0-9_'\'']*/) || match(s, /^[A-Za-z_][A-Za-z0-9_'\'']*(\.[A-Za-z_][A-Za-z0-9_'\'']*)*/)) t = substr(s, 1, RLENGTH)
      else if (match(s, /^(\[\||\|\])/)) t = substr(s, 1, 1) == "[" ? "[" : "]"
      else if (match(s, /^[][(){};,]/) || match(s, /^[-!$%&*+.\/:<=>?@^|~#]+/)) t = substr(s, 1, RLENGTH)
      else { RLENGTH = 1; t = "" }
      if (t != "") print t >out
      s = substr(s, RLENGTH + 1)
    }
  }' $sources

# The names module $1 goes by in file $2, `|`-joined: its own and each
# alias (`module A = ...$1`).
names_of() {
  printf '%s\n' "$1" \
    $(sed -n "s/.*module \([A-Z][A-Za-z0-9_']*\) *= *\([A-Z][A-Za-z0-9_']*\.\)*$1\b.*/\1/p" "$2") |
    sort -u | paste -sd'|'
}

# Whether file $2 opens a module named one of $1 (`open`, `include`,
# `M.(`).
opens() {
  grep -qE "\b(open|include)!? +([A-Z][A-Za-z0-9_']*\.)*($1)\b|\b($1)\.\(" "$2"
}

# The names a file calls through module $1 (aliases, `open`, `$1.(`).
calls_through() {
  local f=$2 names
  names=$(names_of "$1" "$f")
  grep -ohE "\b($names)\.$ident" "$f" | sed 's/.*\.//' || true
  if opens "$names" "$f"; then
    grep -ohE "\b$ident" "$f" || true
  fi
}

# "v l" for each label `~l`/`?l` that a call to $1.v in file $2 passes
# in its own argument list, for the values v in $3 (see the top).
sets_through() {
  local f=$2 names opened=0
  names=$(names_of "$1" "$f")
  if opens "$names" "$f"; then opened=1; fi
  awk -v names="$names" -v opened="$opened" -v vals="$3" '
    BEGIN {
      n = split(vals, v, " "); for (i = 1; i <= n; i++) want[v[i]] = 1
      n = split(names, a, "|"); for (i = 1; i <= n; i++) qual[a[i]] = 1
      n = split("in let and then else with do done of when begin end type module open include val external exception", k, " ")
      for (i = 1; i <= n; i++) stop[k[i]] = 1
    }
    { tok[NR] = $0 }
    END {
      for (i = 1; i <= NR; i++) {
        name = tok[i]; q = ""
        if (name ~ /\./) { q = name; sub(/\.[^.]*$/, "", q); sub(/.*\./, "", q); sub(/.*\./, "", name) }
        if (!(name in want) || (q == "" ? !opened : !(q in qual))) continue
        depth = 0
        for (j = i + 1; j <= NR; j++) {
          u = tok[j]
          if (u ~ /^[[({]$/ || u == "begin") depth++
          else if (u ~ /^[])}]$/ || u == "end") { if (depth == 0) break; depth-- }
          else if (depth == 0) {
            if (u ~ /^[~?][a-z_]/) print name, substr(u, 2)
            else if (u in stop || (u ~ /^[-!$%&*+.\/:<=>?@^|~#;,]+$/ && u != ":" && u != "." && u != "!")) break
          }
        }
      }
    }' "$tokens/${f//\//%}"
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
      for q in $mod $subs; do
        vals=$(awk -v q="$q" '{ p = $1; sub(/.*\./, "", p) } p == q { print $2 }' "$options" | sort -u | paste -sd' ')
        [ -z "$vals" ] || sets_through "$q" "$f" "$vals" | sed "s/^/$q /"
      done
    } | sort -u | sed "s|^|$f |"
  done >"$called"
  uncalled=$(for v in $(sed -n "s/^val \([A-Za-z0-9_']*\) *:.*/\1/p" "$mli"); do
    grep -qxF -- "$mod $v" <(cut -d' ' -f2- "$called") || echo "$mod.$v"
  done)
  [ -z "$uncalled" ] || printf '%s\n' "$uncalled"
  # an option is set where a call to its value passes it ("f q v l"
  # lines); the options of a value flagged as uncalled go with it
  awk -v uncalled="$uncalled" '
    BEGIN { n = split(uncalled, u, "\n"); for (i = 1; i <= n; i++) gone[u[i]] = 1 }
    FILENAME == ARGV[1] { if (NF == 4) set[$2, $3, $4] = 1; next }
    ($1 "." $2) in gone { next }
    {
      q = $1; sub(/.*\./, "", q)
      if (!((q, $2, $3) in set)) print $1 "." $2 "?" $3
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
