#!/usr/bin/env python3
"""End-to-end regression check of examples/tcim_cli.

Runs ``tcim_cli --json`` on a fixed set of cases and compares every
field of each report with pinned values, except the host-measured
ones (``host_seconds`` and the one-shot ``stages`` object). Also
checks that:
  * every report says ``"verified": true``;
  * a one-shot report carries every pipeline stage in ``stages``, and
    its ``host_seconds`` is their sum;
  * invalid options exit with status 2 before any stage runs.

The pinned values are deterministic at the default seed (42): graph
synthesis, relabel choice, the simulated pass's op counts and the
modeled latency/energy do not depend on the machine. A change that
moves them must say why and update PINNED below.

Usage:
  check_cli.py --binary PATH/tcim_cli --delta tests/data/cli_smoke.delta

Registered as the ``cli_smoke`` ctest and run by CI's sanitizer leg.
Exit status 0 when every case passes, 1 otherwise (one line per
problem).
"""

import argparse
import json
import subprocess
import sys

# Fields measured on the host; compared for presence only.
TIMING_FIELDS = {"host_seconds", "stages"}

STAGES = ["relabel_choose", "relabel_apply", "orient", "slice",
          "accel_init", "host_pass", "sim_pass", "verify"]

EGO = "CommunityCliques(size=60, inter=0.050000, hub=0.000000)"
YOUTUBE = "Rmat(a=0.57,b=0.19,c=0.19,d=0.05)"

# (name, arguments, pinned fields, one-shot?)
PINNED = [
    ("one-shot", ["--dataset", "ego-facebook"], {
        "source": EGO, "vertices": 4039, "edges": 88466,
        "triangles": 792484, "relabel": "none (auto)",
        "relabel_nvs_ratio": 1, "and_ops": 120375, "row_writes": 118725,
        "col_writes": 10017, "hit_rate": 0.916785, "exchange_rate": 0,
        "serial_seconds": 0.00297903, "parallel_seconds": 0.00249117,
        "chip_energy_j": 0.000228147, "platform_energy_j": 0.0598088,
        "verified": True}, True),
    ("auto-degree", ["--dataset", "com-youtube", "--scale", "0.02"], {
        "source": YOUTUBE, "vertices": 22698, "edges": 59752,
        "triangles": 102543, "relabel": "degree (auto)",
        "relabel_nvs_ratio": 0.833425, "and_ops": 175675,
        "row_writes": 123302, "col_writes": 12130, "hit_rate": 0.930952,
        "exchange_rate": 0, "serial_seconds": 0.00369425,
        "parallel_seconds": 0.00311107, "chip_energy_j": 0.000282541,
        "platform_energy_j": 0.0741675, "verified": True}, True),
    ("bfs-degree-top", ["--dataset", "ego-facebook", "--relabel", "bfs",
                        "--orientation", "degree", "--top", "3"], {
        "source": EGO, "vertices": 4039, "edges": 88466,
        "triangles": 792484, "relabel": "bfs",
        "relabel_nvs_ratio": 2.15748,
        "top": [{"vertex": 1802, "degree": 64},
                {"vertex": 3141, "degree": 63},
                {"vertex": 1088, "degree": 62}],
        "and_ops": 485009, "row_writes": 427480, "col_writes": 38456,
        "hit_rate": 0.920711, "exchange_rate": 0,
        "serial_seconds": 0.0113455, "parallel_seconds": 0.00950945,
        "chip_energy_j": 0.000868504, "platform_energy_j": 0.227779,
        "verified": True}, True),
    ("banks-2d", ["--dataset", "com-youtube", "--scale", "0.02",
                  "--banks", "2", "--partition", "2d"], {
        "source": YOUTUBE, "vertices": 22698, "edges": 59752,
        "triangles": 102543, "relabel": "degree (auto)",
        "relabel_nvs_ratio": 0.833425, "banks": 2,
        "partition": "2d-hub-replicated", "edge_cut": 0,
        "load_imbalance": 1.09801, "and_ops": 175675,
        "hit_rate": 0.980509, "critical_path_seconds": 0.00186601,
        "serial_sum_seconds": 0.00363977, "bank_speedup": 1.95056,
        "hub_count": 390, "replica_overhead": 0.249983,
        "tile_imbalance": 1.00064, "chip_energy_j": 0.000278951,
        "platform_energy_j": 0.0375992, "verified": True}, False),
    ("stream", ["--dataset", "ego-facebook", "--stream", "<delta>"], {
        "source": EGO, "stream": "<delta>", "relabel": "none (auto)",
        "relabel_nvs_ratio": 1, "batches": 3,
        "initial_triangles": 792484, "final_triangles": 792485,
        "net_delta": 1, "edges_inserted": 8, "edges_deleted": 3,
        "ops_dropped": 1, "and_ops": 13, "recounts": 0,
        "verified": True}, False),
]

# Options rejected with exit status 2. The capacity cases are the
# negative, NaN and out-of-range doubles whose cast to an integer byte
# count is undefined behaviour.
REJECTED = [
    ["--policy", "bogus"],
    ["--capacity-mb", "-1"],
    ["--capacity-mb", "nan"],
    ["--capacity-mb", "1e300"],
    ["--orientation", "sideways"],
    ["--partition", "bogus"],
    ["--relabel", "bogus"],
    ["--slice-bits", "96"],
    ["--scale", "abc"],
    ["--banks", "0"],
    ["--recount-frac", "nan"],
]


def substitute(value, delta):
    if value == "<delta>":
        return delta
    return value


def check_case(errors, binary, delta, name, args, pinned, one_shot):
    args = [substitute(a, delta) for a in args]
    proc = subprocess.run([binary, *args, "--json"], capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        errors.append(f"{name}: exit status {proc.returncode}: "
                      f"{proc.stderr.strip()}")
        return
    try:
        report = json.loads(proc.stdout.splitlines()[0])
    except (IndexError, json.JSONDecodeError) as e:
        errors.append(f"{name}: no JSON report ({e})")
        return

    expected = {k: substitute(v, delta) for k, v in pinned.items()}
    measured = set(report) - set(expected)
    missing_timing = {"host_seconds"} | ({"stages"} if one_shot else set())
    for key in sorted(missing_timing - measured):
        errors.append(f"{name}: missing '{key}'")
    for key in sorted(measured - TIMING_FIELDS):
        errors.append(f"{name}: unexpected field '{key}'")
    for key, want in expected.items():
        if key not in report:
            errors.append(f"{name}: missing '{key}'")
        elif report[key] != want:
            errors.append(f"{name}: '{key}' is {report[key]!r}, "
                          f"pinned {want!r}")
    if report.get("verified") is not True:
        errors.append(f"{name}: not verified")

    if not one_shot or "stages" not in report:
        return
    stages = report["stages"]
    if list(stages) != STAGES:
        errors.append(f"{name}: stages {list(stages)}, expected {STAGES}")
        return
    if any(not isinstance(v, (int, float)) or v < 0 for v in stages.values()):
        errors.append(f"{name}: negative or non-numeric stage {stages}")
    total = sum(stages.values())
    # Both sides are printed with 6 significant digits.
    if abs(report["host_seconds"] - total) > 1e-4 * max(total, 1e-6):
        errors.append(f"{name}: host_seconds {report['host_seconds']} is "
                      f"not the stage sum {total}")
    if stages["sim_pass"] <= 0 or stages["verify"] <= 0:
        errors.append(f"{name}: sim_pass and verify must have run")


def check_rejected(errors, binary, args):
    proc = subprocess.run([binary, "--dataset", "ego-facebook", *args,
                           "--json"], capture_output=True, text=True,
                          check=False)
    if proc.returncode != 2:
        errors.append(f"{' '.join(args)}: exit status {proc.returncode}, "
                      f"expected 2 ({proc.stderr.strip()})")
    elif proc.stdout.lstrip().startswith("{"):
        errors.append(f"{' '.join(args)}: printed a report before failing")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True, help="tcim_cli path")
    parser.add_argument("--delta", required=True,
                        help="replay file for the --stream case")
    opts = parser.parse_args()

    errors = []
    for name, args, pinned, one_shot in PINNED:
        check_case(errors, opts.binary, opts.delta, name, args, pinned,
                   one_shot)
    for args in REJECTED:
        check_rejected(errors, opts.binary, args)
    for e in errors:
        print(e)
    if not errors:
        print(f"cli_smoke: {len(PINNED)} reports and {len(REJECTED)} "
              f"rejected options OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
