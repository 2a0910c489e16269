#!/bin/sh
# The simulated machine is written once, in lib/sim/bep.ml: the four
# dynamic geometries (Bep.pht_direct, Bep.gshare, Bep.btb64, Bep.btb256),
# the penalties and the return-stack depth (Bep.return_stack_depth).
# Every other file in lib/ and bin/ reads them from there.  This guard
# fails when one of those files writes a machine fact down again:
#
# - a Bep.Pht_direct, Bep.Pht_gshare or Btb_arch built with a literal
#   geometry (Btb_arch is Bep's alone, so it matches unqualified; the
#   conflict analysis's scaled Structure.Pht_direct and friends are their
#   own type and do not match);
# - a literal return-stack depth: a return_stack_depth field or argument,
#   a Structure.Ras depth, or a Return_stack.create depth given as a
#   number.
#
# Records may span lines, so each file is matched as one line.  A local
# open (Bep.( ... )) hides the qualifier and is not caught.
set -eu

root=$(dirname "$0")/..
machine=lib/sim/bep.ml
geometry='(Bep\.(Pht_direct|Pht_gshare)|Btb_arch)[[:space:]]*\{[^}]*=[[:space:]]*[0-9]+'
depth='return_stack_depth[[:space:]]*[=:][[:space:]]*[0-9]+|Ras[[:space:]]*\{[[:space:]]*depth[[:space:]]*=[[:space:]]*[0-9]+|Return_stack\.create[[:space:]]+~depth:[[:space:]]*[0-9]+'

failed=0
checked=0
for f in $(cd "$root" && find lib bin -name '*.ml' -o -name '*.mli' | sort); do
  [ "$f" = "$machine" ] && continue
  checked=$((checked + 1))
  flat=$(tr '\n' ' ' < "$root/$f")
  for what in geometry depth; do
    eval "pattern=\$$what"
    if hits=$(printf '%s\n' "$flat" | grep -oE "$pattern"); then
      printf '%s\n' "$hits" | while IFS= read -r hit; do
        echo "FAIL $f writes a literal $what: $hit (read it from $machine)" >&2
      done
      failed=1
    fi
  done
done

if [ "$checked" -eq 0 ]; then
  echo "check_machine: no sources found under lib/ and bin/" >&2
  exit 2
fi
if [ "$failed" -eq 0 ]; then
  echo "ok   $checked files in lib/ and bin/ read the machine from $machine"
fi
exit $failed
