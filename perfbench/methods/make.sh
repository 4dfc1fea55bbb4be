#!/bin/sh
# Rebuilds the stored TAME parameter files of the curve workload
# (about 12 s for iseg:80 and 2 s for rseg:100 on one core).
# Run from the root of the repository.
set -e
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
python3 -m awilt.cli gen --method tame --domain iseg:80 --nprime 20 \
    --count 4000 --out perfbench/methods/tame_iseg80_n20.json
python3 -m awilt.cli gen --method tame --domain rseg:100 --nprime 33 \
    --out perfbench/methods/tame_rseg100_n33.json
