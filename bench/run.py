"""Benchmark of nlsob studies, end to end and per module.

Usage, from the repository root:

    python3 bench/run.py --workload radial_limit --seed 1 --seconds 30 --trace 0

Runs studies of one workload back to back, each in a fresh Python
process with ``WORKERS`` unset (the serial default), until ``--seconds``
have passed (at least three; two of each kind in a traced run).  Every
study's outputs are checked against the benchmark's own truth and the
checked-in reference (``check.py``).

``--trace 0`` prints the end-to-end metrics: medians over the run's
studies of the study, CPU and set-up times and peak memory, the median
error budget of the estimates, and the share of operations that did not
fail.  ``--trace 1`` alternates untraced and traced studies and prints
the per-module metrics of ``tracer.py`` (medians over the traced
studies) and the tracing overhead.  The last line of standard output is
one JSON object; a fuller record with provenance is written to
``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
sys.path.insert(0, BENCH)

import check  # noqa: E402
from tracer import LAYER_METRICS, median_metrics  # noqa: E402
from workloads import WORKLOADS, variant  # noqa: E402

END_TO_END = (
    ("study_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("err_budget_rel", "ratio", "lower"),
    ("ok_frac", "ratio", "higher"),
)
MIN_STUDIES = 3
MIN_TRACED = 2  # of each kind, in a traced run
DEADLINE_S = 170.0  # a run ends within this, or fails


class StudyError(RuntimeError):
    pass


def run_study(workload: str, seed: int, trace: int, workdir: str,
              timeout: float = DEADLINE_S) -> dict:
    """One study in a fresh process; its parsed JSON result."""
    env = dict(os.environ)
    env.pop("WORKERS", None)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "study.py"), "--workload", workload,
             "--seed", str(seed), "--spawn", repr(spawn), "--trace", str(trace),
             "--workdir", workdir],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise StudyError(f"study exceeded {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise StudyError(f"study exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _median(studies, key):
    return statistics.median(s[key] for s in studies)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nlsob", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/nlsob is missing", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    workdir = os.path.join(BUILD, f"work-{os.getpid()}")
    plain, traced = [], []
    start = time.monotonic()
    try:
        while True:
            if args.trace:
                enough = min(len(plain), len(traced)) >= MIN_TRACED
            else:
                enough = len(plain) >= MIN_STUDIES
            if enough and time.monotonic() - start >= args.seconds:
                break
            use_trace = bool(args.trace) and len(traced) < len(plain)
            study = run_study(args.workload, args.seed, int(use_trace),
                              os.path.join(workdir, str(len(plain) + len(traced))),
                              timeout=start + DEADLINE_S - time.monotonic())
            (traced if use_trace else plain).append(study)
    except StudyError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = check.load_reference(args.workload, variant(args.seed))
    studies = plain + traced
    verdicts = [check.check_ops(s["ops"], reference) for s in studies]
    attempted = sum(len(v) for v in verdicts)
    failed = sum(1 for v in verdicts for _, reason, _ in v if reason)
    regressions = sorted({op_id for v in verdicts for op_id, _, reg in v if reg})
    same_ops = all(s["ops"] == studies[0]["ops"] for s in studies[1:])
    correct = reference is not None and not regressions and same_ops
    failures = sorted({(op_id, reason) for op_id, reason, _ in verdicts[0] if reason})

    if args.trace:
        layer = median_metrics([s["trace"] for s in traced])
        layer["functionals.verdict_misses"] = sum(
            1 for _, reason, _ in verdicts[0] if reason == "verdict")
        layer["trace.overhead_frac"] = (_median(traced, "study_s")
                                        / _median(plain, "study_s") - 1.0)
        table = LAYER_METRICS
        values = layer
    else:
        table = END_TO_END
        values = {k: _median(plain, k) for k in ("study_s", "cpu_s", "setup_s",
                                                 "peak_rss_mb")}
        values["err_budget_rel"] = check.err_budget_rel(plain[0]["ops"])
        values["ok_frac"] = 1.0 - failed / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in table}

    record = {
        "workload": args.workload, "seed": args.seed, "variant": variant(args.seed),
        "seconds": args.seconds, "trace": args.trace,
        "studies": {"untraced": len(plain), "traced": len(traced)},
        "per_study": {k: [s[k] for s in plain] for k in ("study_s", "cpu_s", "setup_s",
                                                         "peak_rss_mb")},
        "per_traced_study": {"study_s": [s["study_s"] for s in traced]},
        "metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed,
        "failures": [list(f) for f in failures], "regressions": regressions,
        "studies_agree": same_ops, "reference_found": reference is not None,
        "provenance": {
            "versions": studies[0]["versions"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "workers_env": os.environ.get("WORKERS"), "workers_in_studies": "unset",
            "git_commit": _git_commit(),
        },
    }
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    out_path = os.path.join(BUILD, "results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} variant={variant(args.seed)} "
          f"studies={len(plain)} untraced, {len(traced)} traced; "
          f"correct={correct} failed={failed}/{attempted}")
    for op_id, reason in failures:
        print(f"#   failed op: {op_id} ({reason})")
    for op_id in regressions:
        print(f"#   regression against the reference: {op_id}")
    moves = {row[0]: row[3] for row in LAYER_METRICS} if args.trace else {}
    for name, m in metrics.items():
        note = f"  (should move: {moves[name]})" if name in moves else ""
        print(f"# {name:34s} {m['value']:.6g} {m['unit']}{note}")
    print(f"# record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
