#!/usr/bin/env python3
"""Check that two source trees give the same CLI results.

    python scripts/same_outputs.py OLD_SRC NEW_SRC [SEED ...] [--smoke]
                                   [--rtol R]

OLD_SRC and NEW_SRC are ``src`` directories, each holding a ``pacerose``
package. Make one from any revision with

    mkdir -p /tmp/old && git archive <rev> src | tar -x -C /tmp/old

and pass ``/tmp/old/src``. For each seed (default 5, 7 and 11) the inputs
of every benchmark workload are written once with
``perfbench/workloads.prepare``. Each workload command, and then each
command again with each option set of its ``VARIANTS``, runs as
``python -m pacerose`` once under each tree, in the same work directory and
with the same paths.
Every file under the command's output directory, its stdout, its stderr
and its exit code are compared byte for byte, except that with ``--rtol R``
a CSV or JSON file also agrees when it differs only in numbers, each within
R of the file's largest magnitude (``nan`` equals ``nan``); SVG and text
files, stdout, stderr and exit codes are always compared byte for byte.
The script prints one line for each that differs and exits 1, or exits 0
when all agree. The variants of a command are run only while its runs so
far agree: once one differs, they could only repeat what it shows.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# the fit's other output branches: the SVG baseline, unmasked curves and
# a grid other than the default; the refusal of a rank-deficient design
# (exit 4, nothing written, naming the rank and the dependent columns),
# which every workload's fit has, also with the exactly zero odd network
# columns of a point-symmetric network and with K above bins / 2; and a
# fit --strict-rank lets through, at K = 1, where the model has no network
# term; and the curves of those exactly zero odd network columns, whose
# beta curve is computed on the whole grid
FIT_VARIANTS = (["--baseline", "min", "--no-mask", "--curve-grid", "50"],
                ["--strict-rank"], ["--no-point-symmetric", "--strict-rank"],
                ["--bins", "6", "--k", "5", "--no-point-symmetric",
                 "--strict-rank"], ["--k", "1", "--strict-rank"],
                ["--no-point-symmetric", "--no-mask"])
# the histograms' other branches: an odd bin count, whose mirror bins
# theta + pi, and count weights in place of the workload's lengths
HIST_VARIANTS = (["--bins", "33"], ["--no-length-weighted"])
# predict's and simulate's own options: directions read as degrees, and a
# seed other than the scenario's
VARIANTS = {"fit": FIT_VARIANTS, "hist": HIST_VARIANTS,
            "predict": (["--degrees"],), "simulate": (["--seed", "3"],)}


def outcome(src, argv, work, out_dir):
    """Exit code, stdout, stderr and output files of one command."""
    shutil.rmtree(out_dir, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-m", "pacerose", *argv], cwd=work,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True, timeout=600)
    result = {"exit code": proc.returncode, "stdout": proc.stdout,
              "stderr": proc.stderr}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            result[str(path.relative_to(out_dir))] = path.read_bytes()
    return result


def _numbers_out(value, numbers):
    """``value`` with each number replaced by None and appended to
    ``numbers``; a CSV cell is a number when ``float`` reads it."""
    if isinstance(value, dict):
        return {k: _numbers_out(v, numbers) for k, v in value.items()}
    if isinstance(value, list):
        return [_numbers_out(v, numbers) for v in value]
    if isinstance(value, bool):
        return value
    try:
        numbers.append(float(value))
    except (TypeError, ValueError):
        return value
    return None


def agree(name, old, new, rtol):
    """Whether output ``name`` agrees: the same bytes, or with ``rtol`` a
    CSV or JSON file whose numbers alone differ, each by at most rtol times
    the largest finite magnitude in either file."""
    if old == new or rtol is None or not name.endswith((".csv", ".json")):
        return old == new
    parsed = []
    for data in (old, new):
        text = data.decode()
        numbers = []
        value = (json.loads(text) if name.endswith(".json")
                 else [line.split(",") for line in text.split("\n")])
        parsed.append((_numbers_out(value, numbers), numbers))
    (old_rest, a), (new_rest, b) = parsed
    if old_rest != new_rest:
        return False
    scale = max((abs(v) for v in a + b if math.isfinite(v)), default=0.0)
    return all(x == y or (math.isnan(x) and math.isnan(y))
               or abs(x - y) <= rtol * scale for x, y in zip(a, b))


def differences(old_src, new_src, workload, seed, smoke, rtol=None):
    """Lines naming what differs between the trees on one workload."""
    found = []
    with tempfile.TemporaryDirectory() as work:
        case = workloads.prepare(workload, work, seed, smoke)
        for cmd in case.commands:
            command, argv = cmd.argv[0], cmd.argv
            for options in [[], *VARIANTS.get(command, ())]:
                old, new = (outcome(src, argv + options, work, cmd.out_dir)
                            for src in (old_src, new_src))
                name = " ".join([command, *options])
                differ = [f"{workload} seed {seed} [{name}]: {key} differs"
                          for key in sorted(old.keys() | new.keys())
                          if key not in old.keys() & new.keys()
                          or not agree(key, old[key], new[key], rtol)]
                found += differ
                if differ:
                    break
    return found


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("seeds", nargs="*", type=int, default=[5, 7, 11])
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's smoke-test input sizes")
    parser.add_argument("--rtol", type=float,
                        help="let the numbers of CSV and JSON files differ "
                             "by this much of each file's largest magnitude")
    opts = parser.parse_args()
    found = [line for seed in opts.seeds
             for workload in workloads.WORKLOADS
             for line in differences(opts.old_src, opts.new_src, workload,
                                     seed, opts.smoke, opts.rtol)]
    print("\n".join(found) if found else "no differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
