#!/bin/sh
# Every alignment algorithm must appear in at least one test wall: each
# Ba_core.Align.algo constructor (lib/core/align.mli) and each constructor
# of Ba_delta.Algo.t (lib/delta/algo.mli), the one algorithm type the
# command line, the server and the reports accept — Anneal included.  The
# walls sweep Matrix.algos (test/matrix.ml), so in practice a new Align
# constructor only has to be added there — but the sweep lists are
# values, not the types, and nothing in the compiler ties them together.
# This guard does: it scrapes the constructor names out of both
# interfaces and greps the test sources for each, failing the build when
# one never shows up.
set -eu

root=$(dirname "$0")/..
tests="$root/test"
missing=0

# check <module> <where to add a missing one> <constructors>
check() {
  module=$1
  hint=$2
  constructors=$3
  if [ -z "$constructors" ]; then
    echo "check_algo_walls: no $module constructors parsed" >&2
    exit 2
  fi
  for c in $constructors; do
    if grep -rqE "$module\.$c\b|\| *$c\b" "$tests" --include='*.ml'; then
      echo "ok   $module.$c appears in the test walls"
    else
      echo "FAIL $module.$c appears in no test wall (add it to $hint)" >&2
      missing=1
    fi
  done
}

# One constructor per "  | Name" line after "type algo =".
check Align test/matrix.ml "$(awk '
  /^type algo =/ { in_type = 1; next }
  in_type && /^[^ |]/ { in_type = 0 }
  in_type && /^  \| / { sub(/^  \| /, ""); sub(/ .*/, ""); print }
' "$root/lib/core/align.mli")"

# "type t = A of ... | B": the first word of each alternative, up to the
# first blank line.
check Algo "the delta.algo tests" "$(awk '
  /^type t =/ { in_type = 1; sub(/^type t =/, "") }
  in_type && /^$/ { in_type = 0 }
  in_type { print }
' "$root/lib/delta/algo.mli" | tr '|' '\n' | awk 'NF { print $1 }')"

exit $missing
