#!/usr/bin/env bash
# The README's CLI examples through the installed `qngcoh` console script.
# Run it from the directory that should receive the outputs: cert.json,
# genuine.json, mc.json, scenario.yaml and scan_out/.
set -euo pipefail

qngcoh certify --pair 0,2 --measured 0.917 --uncertainty 0.004 --out cert.json
qngcoh thresholds --pair 0,1 --pair 0,2 --pair 0,3 --pair 0,4 --pair 0,6 \
    --kind genuine --out genuine.json
qngcoh mc-verify --kind genuine --pair 0,3 --samples 100000 --seed 1 --out mc.json
cat > scenario.yaml <<'EOF'
pairs: [[0, 2], [0, 4]]
delays: [0.0, 0.004, 0.008, 0.012]
noise:
  initial_thermal_nbar: 0.07
  heating_rate: 3.2
  dephasing_rate: 1.0
phases: 16
shots: null
seed: 1
kind: genuine
EOF
qngcoh simulate --config scenario.yaml --out scan_out/
