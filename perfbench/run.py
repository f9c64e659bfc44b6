"""Benchmark of the pacerose command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-city --seed 1 --seconds 10 --trace 0

The benchmark writes the workload's inputs from ``--seed`` (see
workloads.py) and computes the reference its outputs are checked against,
then:

1. warms up: runs the workload once untimed, so the page cache holds its
   inputs (every later disk read is a page-cache read) and bytecode caches
   are written;
2. repeats the workload's commands in child processes for ``--seconds``
   seconds, each repeat followed by one fresh ``python -m pacerose --help``
   child, and reports medians over the repeats: ``wall_s`` of the
   workload's commands, ``peak_rss_mb`` of its largest child (each child's
   own ``ru_maxrss`` from ``os.wait4``) and ``setup_s``, the start-up cost
   every CLI call pays;
3. with ``--trace 1``, spends only half the time on step 2 and the other
   half on in-process ``pacerose.cli.main(argv)`` calls with the layer
   hooks of spans.py installed, and reports the per-layer metrics instead.

Every command's outputs are checked against a reference the benchmark
computes itself.  A command that exits non-zero or fails its check counts
as failed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run's record (environment, input hashes, sample
counts).  The record, with the spans of a traced run, is also written to
``.perfbench/results/``.

``--smoke`` shrinks every input to a few hundred rows, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

import spans as spans_mod
import workloads

SETUP_SAMPLES = 7
MIN_SAMPLES = 3
# children still running this long after the start are killed, so that a
# hung program still lets the run end within its 180 s
RUN_DEADLINE_S = 150.0
# The workloads' matrices are thin: a second BLAS thread on a 2-core machine
# added CPU time and run-to-run spread without lowering wall time.
BLAS_THREADS = 1
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


@dataclass
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, command: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed [{command}]: {p}", file=sys.stderr)


def run_child(argv, cwd, env, log_dir, timeout) -> ChildResult:
    """Run one child to completion; wall time from the parent, RSS from wait4.

    The child is killed after ``timeout`` seconds, and then exits non-zero.
    """
    out_path = os.path.join(log_dir, "stdout.txt")
    with open(out_path, "wb") as out, \
            open(os.path.join(log_dir, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    # ru_maxrss is in KiB on Linux
    return ChildResult(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, stdout)


def _clear(out_dir):
    if out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)


def _bytes_under(out_dir) -> int:
    total = 0
    for dirpath, _, names in os.walk(out_dir or ""):
        total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
    return total


class Bench:
    def __init__(self, root, work, case, smoke):
        self.root = root
        self.work = work
        self.case = case
        self.tally = Tally()
        self.python = sys.executable
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
        self.min_samples = 1 if smoke else MIN_SAMPLES
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def child(self, args) -> ChildResult:
        timeout = max(self.deadline - time.perf_counter(), 0.0)
        return run_child([self.python, "-m", "pacerose", *args], self.work,
                         self.env, self.work, timeout)

    def help_sample(self) -> float:
        """Wall time of one fresh ``--help`` child: the CLI's start-up cost."""
        r = self.child(["--help"])
        self.tally.record("--help", [] if r.exit_code == 0 and "pacerose" in r.stdout
                          else [f"exit code {r.exit_code}"])
        return r.wall_s

    def sample(self):
        """Run the workload's commands once as children: (wall_s, peak MB)."""
        wall, rss = 0.0, 0.0
        for cmd in self.case.commands:
            _clear(cmd.out_dir)
            r = self.child(cmd.argv)
            wall += r.wall_s
            rss = max(rss, r.peak_rss_mb)
            problems = ([f"exit code {r.exit_code}"] if r.exit_code
                        else cmd.check(r.stdout))
            self.tally.record(cmd.argv[0], problems)
        return wall, rss

    def warm_up(self):
        """One untimed run: page cache, bytecode cache, lazy start-up."""
        self.help_sample()
        self.sample()

    def timed(self, seconds):
        """Workload samples for ``seconds``, each followed by a ``--help``
        sample, so that both sets of samples span the same stretch of time."""
        samples, setup = [], []
        start = time.perf_counter()
        while (len(samples) < self.min_samples
               or time.perf_counter() - start < seconds):
            samples.append(self.sample())
            setup.append(self.help_sample())
        while len(setup) < SETUP_SAMPLES:
            setup.append(self.help_sample())
        return samples, setup

    def traced(self, seconds):
        """In-process runs with the layer hooks: (per-sample metrics, spans)."""
        sys.path.insert(0, os.path.join(self.root, "src"))
        import pacerose.cli  # noqa: F401  (imported before the hooks go in)

        # the program's warnings go to a file, as a child's stderr would
        handler = logging.FileHandler(os.path.join(self.work, "trace_stderr.txt"))
        handler.setFormatter(logging.Formatter("%(message)s"))
        logging.getLogger().addHandler(handler)
        logging.getLogger().setLevel(logging.WARNING)
        tracer = spans_mod.Tracer()
        tracer.install()
        per_sample, all_spans = [], []
        try:
            start = time.perf_counter()
            while (len(per_sample) < self.min_samples
                   or time.perf_counter() - start < seconds):
                written = 0
                for cmd in self.case.commands:
                    _clear(cmd.out_dir)
                    problems = self._call_main(cmd)
                    written += _bytes_under(cmd.out_dir)
                    self.tally.record(cmd.argv[0], problems)
                spans = tracer.take()
                metrics = spans_mod.layer_metrics(spans)
                metrics["cli.bytes_written"] = written
                per_sample.append(metrics)
                all_spans.append([asdict(s) for s in spans])
        finally:
            tracer.uninstall()
            logging.getLogger().removeHandler(handler)
            handler.close()
        provided = tracer.provided() | {"cli.bytes_written"}
        return per_sample, all_spans, provided, tracer.absent

    def _call_main(self, cmd) -> list:
        import pacerose.cli

        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = pacerose.cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash of the program under test is a failure
            traceback.print_exc()
            return ["raised an exception"]
        return [f"exit code {code}"] if code else cmd.check(stdout.getvalue())


# --------------------------------------------------------------- reporting

def _tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None, None


def _openblas(name):
    """The named function of numpy's bundled OpenBLAS, or None."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(ctypes.CDLL(lib), f"{prefix}openblas_{name}{suffix}", None)
                if fn is not None:
                    return fn
    return None


def pin_blas_threads():
    """Give this process one BLAS thread, as its children get; return the count."""
    setter, getter = _openblas("set_num_threads"), _openblas("get_num_threads")
    if setter is None or getter is None:
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(BLAS_THREADS)
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_identity(root):
    """The git commit, if the checkout is a repository, and a hash of src/."""
    commit = ""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    text=True, capture_output=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "pacerose")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return commit or "unknown (not a git checkout)", digest.hexdigest()


def environment(root, blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, src_sha = _source_identity(root)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": commit,
        "src_sha256": src_sha,
        "disk_reads": "page cache: inputs are read once untimed before timing",
    }


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _emit(entries, values):
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
            for e in entries if e["name"] in values}


def run(args, root, work) -> tuple:
    spec = load_spec(root)
    os.makedirs(work)
    t0 = time.perf_counter()
    case = workloads.prepare(args.workload, work, args.seed, args.smoke)
    prepare_s = time.perf_counter() - t0
    bench = Bench(root, work, case, args.smoke)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "environment": environment(root, pin_blas_threads()),
        "inputs": case.inputs, "input_prepare_s": prepare_s,
    }
    bench.warm_up()
    seconds = args.seconds / 2 if args.trace else args.seconds
    samples, setup = bench.timed(seconds)
    walls = [w for w, _ in samples]
    values = {"setup_s": statistics.median(setup),
              "wall_s": statistics.median(walls),
              "peak_rss_mb": statistics.median(r for _, r in samples)}
    tail_p, tail_v = _tail(walls)
    record.update({"wall_sample_count": len(walls), "wall_samples_s": walls,
                   "wall_tail_percentile": tail_p, "wall_tail_s": tail_v,
                   "setup_samples_s": setup,
                   "peak_rss_samples_mb": [r for _, r in samples]})
    metrics_spec = spec["end_to_end"]
    if args.trace:
        per_sample, all_spans, provided, absent = bench.traced(seconds)
        names = [e["name"] for e in spec["per_layer"]]
        for name in names:
            if name in provided:
                values[name] = statistics.median(m.get(name, 0) for m in per_sample)
        if "cli.main_s" in values:
            values["trace.overhead_s"] = values["cli.main_s"] - (
                values["wall_s"] - len(case.commands) * values["setup_s"])
        record.update({"trace_samples": len(per_sample), "absent_hooks": absent,
                       "layer_samples": per_sample, "spans": all_spans})
        for target in absent:
            print(f"warning: {target} not found; its metrics are absent",
                  file=sys.stderr)
        metrics_spec = spec["per_layer"]
    record["failed_frac"] = bench.tally.failed / bench.tally.attempted
    record["end_to_end"] = {k: values[k] for k in
                            (e["name"] for e in spec["end_to_end"])}
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": _emit(metrics_spec, values),
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "pacerose", "cli.py")):
        print(f"error: no pacerose sources under {os.path.join(root, 'src')}",
              file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"work-{os.getpid()}")
    try:
        record, result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as f:
        json.dump(dict(record, result=result), f, indent=1)
    summary = {k: v for k, v in record.items()
               if k not in ("layer_samples", "spans")}
    for metric, entry in result["metrics"].items():
        print(f"{metric}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
