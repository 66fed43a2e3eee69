"""Workload definitions shared by run.py and the workload process (workload.py).

Every workload uses the mollified-step window.  Config paths are relative to
the repository root; the benchmark-owned configs live in perfbench/configs.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
BENCH_CONFIG_DIR = Path(__file__).resolve().parent / "configs"

WORKLOADS = {
    # spectral tensor path at both extremes of memory per call: a 288^3
    # order-4 tensor at n = 1 and a 64^4 order-3 tensor at n = 2; no
    # position-space work
    "spectral-hierarchy": (
        CONFIG_DIR / "criterion_01_normal_scaling.json",
        BENCH_CONFIG_DIR / "bench_n2_product_ansatz.json",
    ),
    # position-space overlap (window.value + scaling.window_overlap_1d)
    # dominates; carries the 1e-6 oracle pin
    "position-overlap": (
        CONFIG_DIR / "criterion_04_oracle.json",
        CONFIG_DIR / "criterion_09a_weighted_boundary.json",
    ),
    # many small one-dimensional spectral calls, the alpha bisection, radial
    # ssb quadratures, limit algebra, partitions and window disk-cache reads
    "radial-suite": tuple(
        CONFIG_DIR / f"criterion_{stem}.json"
        for stem in ("02_limit_two_point", "03_qmode", "05_cumulants", "06_weyl_ccr",
                     "07_commutator", "08_l2_bisection", "10_ssb", "11a_projector",
                     "11b_gapped", "11c_gapless")
    ),
}

# How closely each workload's times follow the speed of the shared host: the
# exponent of the reference kernel's slow-down (calibrate.py) by which its
# wall times are divided.  The interpreter-bound radial suite slows down as
# much as the kernel does; the array-bound workloads slow down by about the
# cube root of the kernel's slow-down (1.17x while the kernel took 1.7x).
SPEED_EXPONENT = {
    "spectral-hierarchy": 1 / 3,
    "position-overlap": 1 / 3,
    "radial-suite": 1.0,
}
