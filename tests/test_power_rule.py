"""One power rule for every closed form: libm's pow, so no output depends on the CPU."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zenodense
from zenodense import zeno
from zenodense.analyzers import qz_ancilla_survival
from zenodense.ifm import blocked_survival, ifm_evolve
from zenodense.metrics import MAX_CURVE_CYCLES
from zenodense.optics import cycle_angle, zeno_law

# A log grid up to 10**6, plus N at which numpy's SIMD `**` on an AVX-512
# host is one ulp off libm's pow for one law or another.
POWER_NS = np.unique(np.concatenate([
    np.geomspace(1, MAX_CURVE_CYCLES, 2000).round(),
    [18, 36, 51, 78, 81, 500, 608],
])).astype(int).tolist()

# Each law, and its (base, exponent) from the law's own numpy expression.
LAWS = {
    "channel_survival": (zeno.channel_survival, lambda n: (zeno.cycle_survival(n), n)),
    "qz_ancilla_survival": (qz_ancilla_survival,
                            lambda n: (1.0 - 0.75 * np.sin(2.0 * cycle_angle(n)) ** 2, n)),
    "blocked_survival": (blocked_survival, lambda n: (np.cos(cycle_angle(n)), 2 * n)),
    # The kernel at the blocked law's (c, k) = (1, 1), its form after ROADMAP item 4, step 1.
    "zeno_law(1, 1)": (lambda n: zeno_law(n, 1.0, 1.0),
                       lambda n: (1.0 - np.sin(cycle_angle(n)) ** 2, n)),
}


def libm_pow(base, exponent) -> list[float]:
    return [math.pow(b, e) for b, e in zip(np.ravel(base).tolist(), np.ravel(exponent).tolist())]


@pytest.mark.parametrize("name", LAWS)
def test_every_law_is_libm_pow(name):
    law, power = LAWS[name]
    ns = np.array(POWER_NS, dtype=float)
    assert law(ns).tolist() == libm_pow(*power(ns))
    assert [float(law(n)) for n in POWER_NS] == [libm_pow(*power(n))[0] for n in POWER_NS]


def test_blocked_ifm_evolve_is_libm_pow():
    assert ([ifm_evolve(n, n, blocked=True)[1] for n in POWER_NS]
            == [math.pow(float(np.cos(cycle_angle(n))), 2 * n) for n in POWER_NS])


def avx512_dispatch_targets() -> list[str]:
    """The AVX-512-level entries of numpy's dispatch list that this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if (name == "X86_V4" or name.startswith("AVX512")) and umath.__cpu_features__.get(name)]


def test_json_sweep_does_not_depend_on_the_cpu():
    targets = avx512_dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 code on this CPU")
    source = os.path.dirname(os.path.dirname(zenodense.__file__))
    argv = [sys.executable, "-W", "error", "-m", "zenodense.cli", "sweep", "--analyzer=all",
            "--n-min=1", "--n-max=3000", "--format=json"]
    outputs = []
    for disabled in ("", " ".join(targets)):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")])))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        outputs.append(subprocess.run(argv, env=env, capture_output=True, text=True,
                                      check=True).stdout)
    assert outputs[0].count('"r_analytic"') == 9000
    assert outputs[0] == outputs[1]
