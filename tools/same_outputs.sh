#!/usr/bin/env bash
# Byte-for-byte comparison of the deterministic outputs of two evolvenet
# checkouts, for a change that must not move any of them. Run from the
# root of the change's checkout:
#
#   bash tools/same_outputs.sh PARENT
#
# PARENT is another evolvenet checkout, e.g. a `git archive` of the
# parent commit unpacked elsewhere. Both sides are built, then each
# runs, from its own root, and their stdout and exit status are
# compared:
#   - `evolvenet report -o FILE` (the file it writes),
#   - `evolvenet exp list`, then `exp ID` for every id it prints,
#   - `evolvenet all`,
#   - `evolvenet drill --list`, then `drill --name NAME --report` for
#     every drill it prints.
# The ids and names are the change's. Every output is compared, so a
# change that moves one output on purpose shows that nothing else
# moved: each that differs is named, with the head of its diff. Exits 0
# when every output is equal, 1 when any differs, 2 on bad usage or a
# failed build.
set -eu

usage() {
  echo "usage: bash tools/same_outputs.sh PARENT" >&2
  exit 2
}
[ $# -eq 1 ] || usage
[ -f dune-project ] && [ -f bin/evolvenet.ml ] || usage
[ -f "$1/dune-project" ] && [ -f "$1/bin/evolvenet.ml" ] ||
  { echo "same_outputs: $1 is not an evolvenet checkout" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(pwd)

for root in "$parent" "$change"; do
  (cd "$root" && dune build --root . ./bin/evolvenet.exe) || exit 2
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

compared=0
differ=0
# same WHAT COMMAND...: runs the command in both roots, one after the
# other ({} in it stands for a temporary file at the same path on both
# sides), and compares what each printed on stdout, that file's
# contents and the exit status; a difference is reported and counted.
same() {
  what=$1
  shift
  file="$out/file"
  for side in parent change; do
    if [ "$side" = parent ]; then root=$parent; else root=$change; fi
    rm -f "$file"
    status=0
    (cd "$root" && "${@//\{\}/$file}") > "$out/$side.out" 2> /dev/null || status=$?
    { if [ -f "$file" ]; then cat "$file"; fi; echo "exit $status"; } >> "$out/$side.out"
  done
  compared=$((compared + 1))
  if ! cmp -s "$out/parent.out" "$out/change.out"; then
    echo "same_outputs: $what differs (parent < > change)" >&2
    diff "$out/parent.out" "$out/change.out" | head -n 20 >&2
    differ=$((differ + 1))
  fi
}

bin=./_build/default/bin/evolvenet.exe
same "evolvenet report" "$bin" report -o {}
same "evolvenet exp list" "$bin" exp list
for id in $(cd "$change" && "$bin" exp list | awk '{print $1}'); do
  same "evolvenet exp $id" "$bin" exp "$id"
done
same "evolvenet all" "$bin" all
same "evolvenet drill --list" "$bin" drill --list
for name in $(cd "$change" && "$bin" drill --list | awk '{print $1}'); do
  same "evolvenet drill --name $name --report" "$bin" drill --name "$name" --report
done
if [ "$differ" -gt 0 ]; then
  echo "same_outputs: $differ of $compared outputs differ" >&2
  exit 1
fi
echo "same_outputs: $compared outputs equal"
