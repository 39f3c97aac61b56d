#!/usr/bin/env bash
# Packaging smoke test: every command end to end, with the files it
# writes and the ones it refuses to write.
#
#   tests/smoke.sh DIR
#
# Runs in DIR, which it fills with its files. The CLI is $MIDISYNC
# (default `midisync`, the installed entry point), so the same checks
# run on an installed package and on the source tree:
#
#   MIDISYNC="python3 -m midisync.cli" PYTHONPATH="$PWD/src" tests/smoke.sh DIR
set -euo pipefail
MIDISYNC=${MIDISYNC:-midisync}
cd "${1:?usage: smoke.sh DIR}"

$MIDISYNC vocab --out-manifest v.tsv
python3 -c "from midisync.tokens import check_manifest; check_manifest(open('v.tsv').read())"
python3 -c "import midisync"
printf '1.0\n' > b.txt
$MIDISYNC generate none b.txt 2 o.mid --model scripted
# An emotion file in sample mode: the package builds the mixture from
# the constant VA table.
printf 'joy: 0.7\nsadness: 0.3\n' > e.txt
$MIDISYNC generate e.txt b.txt 2 e.mid --va-mode sample
test -s e.mid && test -s e.tokens && test -s e.manifest.json
# The default token path of OUT_MIDI c.tokens is c.tokens itself:
# the command refuses and writes nothing.
if $MIDISYNC generate none b.txt 2 c.tokens --model scripted; then exit 1; fi
test ! -e c.tokens
$MIDISYNC encode o.mid o.tokens
# encode draws nothing, so the argument parser refuses a seed.
if $MIDISYNC encode o.mid x.tokens --seed 1; then exit 1; fi
test ! -e x.tokens
$MIDISYNC decode o.tokens r.mid
$MIDISYNC chords o.mid
# An output that is one of the command's inputs: the command
# refuses and the input is left as it was.
cp o.mid keep.mid
if $MIDISYNC encode o.mid o.mid; then exit 1; fi
cmp o.mid keep.mid
if $MIDISYNC generate none b.txt 2 b.mid --out-tokens b.txt --model scripted; then exit 1; fi
test "$(cat b.txt)" = "1.0"
# Two songs: the package hands the first song's outputs to the writer
# thread while it prepares the second.
mkdir songs && cp o.mid songs/o.mid && cp o.mid songs/p.mid
$MIDISYNC prepare songs prepared --augment 2
test "$(ls prepared | wc -l)" -eq 12
# A running-status file with a program change: the byte scan tokenises
# it, _decode gives each event its status in force, and one _settle says
# what its events mean (program 25: guitar) and settles its notes.
printf 'MThd\x00\x00\x00\x06\x00\x00\x00\x01\x01\xe0MTrk\x00\x00\x00\x0e\x00\xc0\x19\x00\x90\x3c\x40\x60\x3c\x00\x00\xff\x2f\x00' > rs.mid
$MIDISYNC encode rs.mid rs.tokens
grep -x GUITAR_ON_60 rs.tokens
grep -x GUITAR_OFF_60 rs.tokens
printf 'duration=2.0\n' > s.log
$MIDISYNC scenes s.log s.txt
