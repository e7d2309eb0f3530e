#!/bin/sh
# Write the CLI fixture set of the checkout SRC into the directory OUT.
#
#     tools/cli_fixtures.sh SRC OUT
#
# Runs every subcommand of `python -m hdcaps` from SRC/src on one
# synthetic scene (gen-synth --size 40x45 --bands 144 --classes 5
# --seed 3): train at epochs=2 and, into a second checkpoint directory,
# at epochs=0, which writes only the log's header; extract; eval with the
# stored labels and with the scene's label raster as --labels; baseline
# raw / pca / le and gradcheck --seed 0 1 2 3. Each command's stdout goes to
# NAME.stdout next to the files it writes. Paths are relative to OUT, so
# the fixture sets of two checkouts compare with `diff -r OUT1 OUT2`; a
# change that keeps the numbers leaves no difference. The bytes depend
# on the numpy and BLAS build, so compare sets made on one machine.
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 1
fi
src=$(cd "$1" && pwd)/src
mkdir -p "$2"
cd "$2"

hdcaps() {
    name=$1
    shift
    PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 python3 -m hdcaps "$@" > "$name.stdout"
}

hdcaps gen-synth gen-synth --out scene --size 40x45 --bands 144 --classes 5 --seed 3
echo "epochs=2" > train.cfg
hdcaps train train --data scene --out ckpt --config train.cfg
echo "epochs=0" > train0.cfg
hdcaps train0 train --data scene --out ckpt0 --config train0.cfg
hdcaps extract extract --model ckpt --data scene --out features.hdcf
hdcaps eval eval --features features.hdcf --report eval.json
hdcaps eval-labels eval --features features.hdcf --labels scene/labels.dten \
    --report eval-labels.json
for method in raw pca le; do
    hdcaps "baseline-$method" baseline --data scene --method "$method" \
        --report "baseline-$method.json"
done
hdcaps gradcheck gradcheck --seed 0 1 2 3
