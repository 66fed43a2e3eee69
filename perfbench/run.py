"""fluctlab benchmark: three workloads through the public ``fluctlab run`` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; BENCHMARK.json lists the workloads and
metrics.  Every workload process is a fresh Python process (workload.py) with
one thread of control and nproc BLAS threads.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median over
SETUP_SAMPLES processes of the time from process start to ready (import,
config parsing, window profiles built into a fresh disk cache);
``solve_s`` is the median over passes of the time to run and emit every
config's report; ``peak_rss_mb`` is the peak resident memory of the process
that ran the passes.  Both times are wall times scaled to a reference CPU
speed with the reference kernel of calibrate.py and the workload's
SPEED_EXPONENT; the raw wall times and the kernel readings are in the
detail record.  Passes repeat until the next one
would end past ``--seconds`` after the first began, and there are at least
two.

``--trace 1`` reports the per-layer metrics from traced passes (spans.py),
which alternate with untraced ones; ``trace.overhead_s`` is the median traced
minus the median untraced ``solve_s``.

Every report is checked against closed-form targets (gate.py) and against
the first pass's bytes.  Before the result line the benchmark prints a
detail record: environment, sample counts, per-pass times, failures and
``failed_share``.  The last line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
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
from pathlib import Path

import calibrate
from workloads import ROOT, SPEED_EXPONENT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
COUNT_SUFFIXES = ("_calls", "_points", "_hits", "_bytes", "bytes_written")


def git_revision() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, work: Path, deadline: float, setup_only: bool) -> dict:
    """Run one workload process to completion and return its JSON record.

    ``setup_s`` in the record is scaled to the reference speed with the
    kernel timed here right before the start and in the process right after
    set-up.
    """
    kernel_before_s = statistics.median(calibrate.kernel_s() for _ in range(3))
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc,
               MKL_NUM_THREADS=nproc)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # run() kills the process on timeout and waits for it before raising
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_wall_s"] = rec["setup_s"]
    rec["setup_kernel_s"] = [kernel_before_s, rec["kernel_after_s"]]
    rec["setup_s"] *= calibrate.speed_factor(*rec["setup_kernel_s"],
                                             SPEED_EXPONENT[args.workload])
    return rec


def layer_medians(passes: list) -> tuple[dict, list]:
    """Median of each layer metric over traced passes; counts must agree exactly."""
    layers = [p["layers"] for p in passes if p["traced"]]
    out, mismatched = {}, []
    for name in layers[0]:
        values = [one[name] for one in layers]
        if name.endswith(COUNT_SUFFIXES) or name == "scaling.tensor_points":
            if len(set(values)) != 1:
                mismatched.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work_root = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        setup_recs = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setup_recs.append(spawn(args, work_root / f"setup-{i}", deadline,
                                        setup_only=True))
        rec = spawn(args, work_root / "passes", deadline, setup_only=False)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if work_root.parent.exists() and not any(work_root.parent.iterdir()):
            work_root.parent.rmdir()
    setup_recs.append(rec)
    setup_samples = [r["setup_s"] for r in setup_recs]

    passes = rec["passes"]
    failures = [msg for p in passes for msg in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p["solve_s"] for p in passes if not p["traced"]]
    if args.trace:
        traced = [p["solve_s"] for p in passes if p["traced"]]
        produced, mismatched = layer_medians(passes)
        produced.update(rec["setup_layers"])
        produced["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        failures += mismatched
        wanted = spec["per_layer"]
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                   "setup": 1}
    else:
        produced = {
            "setup_s": statistics.median(setup_samples),
            "solve_s": statistics.median(untraced),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        samples = {"setup_s": len(setup_samples), "solve_s": len(untraced), "peak_rss_mb": 1}
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        raise SystemExit(f"benchmark produced no value for {missing}")
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": dict(rec["environment"], git_revision=git_revision()),
        "samples": samples,
        "setup_s_samples": setup_samples,
        "setup_wall_s_samples": [r["setup_wall_s"] for r in setup_recs],
        "setup_kernel_s_samples": [r["setup_kernel_s"] for r in setup_recs],
        "passes": [{k: p[k] for k in ("traced", "solve_s", "wall_s", "cpu_s", "order",
                                      "config_s", "kernel_s")}
                   for p in passes],
        "failed_share": failed / attempted,
        "failures": failures,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
