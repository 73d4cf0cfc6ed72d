#!/bin/sh
# curve (linear, --log-y and on a subnormal time span), tld, sweep and
# --version run on the standard library alone and must write byte-identical
# files under python3.10, python3.11, python3.12 and python3.13, which must
# all be on PATH; each version's files are diffed against python3.10's.
# Every launch must exit 0 but the s = 3 tld, the no crossing that the bound
# past t_rise proves (exit 2); a launch that fails names its interpreter and
# fails the script.  Prints "same" when the files agree.
root=$(cd "$(dirname "$0")/.." && pwd)
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
ok=1
for py in python3.10 python3.11 python3.12 python3.13; do
    mkdir "$d/$py"
    (
        export PYTHONPATH="$root/src"
        cd "$d/$py" &&
        printf 's = 3\neta = 1e-9\nthreshold = 9.1e-5\nt_max = 1000\n' > s3-bound.cfg &&
        $py -m decoq.cli --version > version &&
        for c in tld curve "sweep --axis T --values 10,30,100"; do
            $py -m decoq.cli $c --out "${c%% *}" > /dev/null || exit
        done &&
        $py -m decoq.cli curve --log-y --out curve-log-y > /dev/null &&
        $py -m decoq.cli curve --samples 3 --t-max 5e-324 --out curve-subnormal > /dev/null &&
        { $py -m decoq.cli tld --config s3-bound.cfg --out tld-s3-bound > /dev/null || [ $? = 2 ]; }
    ) || { echo "a launch failed under $py"; ok=0; }
    [ "$py" = python3.10 ] || diff -r "$d/python3.10" "$d/$py" || ok=0
done
[ $ok = 1 ] && echo same
