"""One workload process: set up, then run timed passes of the workload's configs.

run.py starts this once per setup sample (``--setup-only``) and once for the
measured passes.  Set-up is what a user waits for before the first result:
``import fluctlab``, ``config.parse_config`` for every config and the build of
each distinct window profile into a fresh window disk cache.  A pass then
reproduces one ``fluctlab run <config>`` with FLUCTLAB_CACHE set per config:
``scaling.clear_caches()``, ``runner.run`` against that disk cache and
``report.emit``.  The in-memory caches live only as long as a CLI process,
so they are cleared before every config and never warmed ahead of time.

The reference kernel (calibrate.py) is timed right before and right after
every config, and three times right after set-up.  A pass's ``wall_s`` is
the sum of the configs' wall times; its ``solve_s`` is that sum with each
config's time scaled to the reference CPU speed with the workload's
SPEED_EXPONENT.

The emitted canonical JSON is read back, hashed and checked by the gate
outside the timed region.  The config order of each pass is shuffled with
the seed; reports must not depend on it, and every pass must reproduce the
first pass's report bytes.  With ``--trace 1`` passes alternate between
untraced and traced, so a traced report is also compared with an untraced
one.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from workloads import ROOT, SPEED_EXPONENT, WORKLOADS

# layers whose spans happen during set-up, not during the passes
SETUP_LAYERS = ("config.parse_config", "window.make_profile")


def _blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, else the env setting."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def pass_layers(tracer, bytes_written: int, oracle_dev: float) -> dict:
    """Layer metrics of one traced pass, plus those derived from its counters."""
    layers = tracer.layer_metrics()
    tracer.reset()
    for ratio, name in (("scaling.window_product_hit_ratio", "scaling.window_product"),
                        ("scaling.overlap_hit_ratio", "scaling.window_overlap_1d")):
        layers[ratio] = layers[f"{name}_hits"] / max(layers[f"{name}_calls"], 1)
    stems = [path.stem for paths in WORKLOADS.values() for path in paths]
    layers["runner.run_self_s"] = sum(layers.get(f"runner.{s}_self_s", 0.0) for s in stems)
    for stem in stems:
        layers.setdefault(f"runner.{stem}_s", 0.0)
    layers["report.bytes_written"] = bytes_written
    layers["scaling.oracle_max_rel_dev"] = oracle_dev
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True, help="fresh directory for caches and reports")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fluctlab
    from fluctlab import config, report, runner, scaling
    import_s = time.perf_counter() - t0
    if Path(fluctlab.__file__).resolve().parent != (src / "fluctlab").resolve():
        raise SystemExit(f"fluctlab imported from {fluctlab.__file__}, not from {src}")

    import calibrate
    import gate
    from spans import Tracer

    work = Path(args.work_dir)
    cache_dir, out_dir = work / "window-cache", work / "reports"
    if cache_dir.exists():
        raise SystemExit(f"window cache {cache_dir} is not fresh")
    tracer = Tracer() if args.trace else None

    with tracer.active() if tracer else nullcontext():
        configs = [(path.stem, config.parse_config(path.read_text()))
                   for path in WORKLOADS[args.workload]]
        built = set()
        for _, cfg in configs:
            key = tuple(sorted(cfg.window_block.items()))
            if key not in built:
                built.add(key)
                cfg.build_window(cache_dir=cache_dir)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "profiles_built": len(built),
              "kernel_after_s": statistics.median(calibrate.kernel_s() for _ in range(3))}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if tracer:
        setup_layers = {k: v for k, v in tracer.layer_metrics().items()
                        if k.startswith(SETUP_LAYERS)}
        setup_layers["fluctlab.import_s"] = import_s
        result["setup_layers"] = setup_layers
        tracer.reset()

    rng = random.Random(args.seed)
    digests = {}
    passes = []
    passes_t0 = time.perf_counter()
    # passes go on while one more, at the mean pass length, would end within --seconds
    while len(passes) < 2 or (
            (time.perf_counter() - passes_t0) * (1 + 1 / len(passes)) <= args.seconds):
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(configs)
        rng.shuffle(order)
        one = {"traced": traced, "order": [stem for stem, _ in order], "failures": [],
               "config_s": {}, "kernel_s": [calibrate.kernel_s()]}
        failed = set()
        solve_s = wall_s = 0.0
        cpu0 = time.process_time()
        bytes_written = 0
        oracle_dev = 0.0
        with tracer.active() if traced else nullcontext():
            for stem, cfg in order:
                scaling.clear_caches()
                run = tracer.span(f"runner.{stem}", runner.run) if traced else runner.run
                basename = cfg.output_block["basename"]
                error = None
                t0 = time.perf_counter()
                try:
                    rep = run(cfg, cache_dir=cache_dir)
                    report.emit(rep, out_dir, basename, cfg.output_block["formats"])
                except Exception as exc:  # a failing config is counted; the run goes on
                    error = exc
                wall = time.perf_counter() - t0
                one["kernel_s"].append(calibrate.kernel_s())
                wall_s += wall
                one["config_s"][stem] = wall
                solve_s += wall * calibrate.speed_factor(*one["kernel_s"][-2:],
                                                         SPEED_EXPONENT[args.workload])
                if error is not None:
                    traceback.print_exception(error)
                    one["failures"].append(f"{stem}: raised {error!r}")
                    failed.add(stem)
                    continue
                data = (out_dir / f"{basename}.json").read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                parsed = json.loads(data)
                fails = gate.check(stem, cfg.model_block, parsed)
                if digests.setdefault(stem, digest) != digest:
                    fails.append("report bytes differ from the first pass")
                one["failures"] += [f"{stem}: {msg}" for msg in fails]
                if fails:
                    failed.add(stem)
                bytes_written += len(data)
                oracle_dev = max(oracle_dev, gate.oracle_max_rel_dev(parsed))
        scaling.clear_caches()
        one["solve_s"] = solve_s
        one["wall_s"] = wall_s
        one["cpu_s"] = time.process_time() - cpu0
        one["attempted"] = len(order)
        one["failed"] = len(failed)
        if traced:
            one["layers"] = pass_layers(tracer, bytes_written, oracle_dev)
        passes.append(one)

    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
