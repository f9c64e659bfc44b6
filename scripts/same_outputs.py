#!/usr/bin/env python3
"""Check that two source trees give byte-identical CLI results.

    python scripts/same_outputs.py OLD_SRC NEW_SRC [SEED ...] [--smoke]

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
and its exit code are compared. The script prints one line for each that
differs and exits 1, or exits 0 when all are identical. The variants of a
command are run only while its runs so far agree: once one differs, they
could only repeat what it shows.
"""

import argparse
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
# (exit 4, nothing written), which every workload's fit has; and a fit
# --strict-rank lets through, at K = 1, where the model has no network term
FIT_VARIANTS = (["--baseline", "min", "--no-mask", "--curve-grid", "50"],
                ["--strict-rank"], ["--k", "1", "--strict-rank"])
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


def differences(old_src, new_src, workload, seed, smoke):
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
                          if old.get(key) != new.get(key)]
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
    opts = parser.parse_args()
    found = [line for seed in opts.seeds
             for workload in workloads.WORKLOADS
             for line in differences(opts.old_src, opts.new_src, workload,
                                     seed, opts.smoke)]
    print("\n".join(found) if found else "no differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
