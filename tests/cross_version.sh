#!/bin/sh
# Runs every case of tests/golden/cases.py but verify under python3.10 to
# python3.13 (all on PATH), through the runner of cases.py with warnings as
# errors, and diffs each version's files, exit_code, stdout.txt and
# stderr.txt against python3.10's.  Prints "same" when all four agree.
cd "$(dirname "$0")/.." || exit 1
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
ok=1
for py in python3.10 python3.11 python3.12 python3.13; do
    PYTHONPATH=src $py -W error tests/golden/cases.py "$d/$py" || { echo "$py failed"; ok=0; }
    [ "$py" = python3.10 ] || diff -r "$d/python3.10" "$d/$py" || ok=0
done
[ $ok = 1 ] && echo same
