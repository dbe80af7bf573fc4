"""The package's public surface: `__all__` and the README quick start."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import resonance_sizer
from resonance_sizer import _contours, zeros

README = Path(__file__).resolve().parent.parent / "README.md"

# Names the package no longer exports.  The permutation object model lives
# in tests/permutation_reference.py, and the package holds image arrays:
# `enumerate_classes` returns its array without a ClassRepresentatives
# wrapper.  The P_0 builder lives in tests/expoly_reference.py.  The
# distance matrix is `Configuration.distances`, computed once per
# configuration.
MOVED = (
    "Permutation",
    "cycle_decompose",
    "permutation_sign",
    "edge_multigraph",
    "edge_equivalent",
    "class_mates",
    "v_sigma",
    "ClassRepresentatives",
    "zero_frequency_polynomial",
    "distance_matrix",
)


def test_all_has_28_names():
    assert len(resonance_sizer.__all__) == len(set(resonance_sizer.__all__)) == 28


@pytest.mark.parametrize(
    "name, exported",
    [(name, True) for name in resonance_sizer.__all__] + [(name, False) for name in MOVED],
)
def test_public_names(name, exported):
    assert hasattr(resonance_sizer, name) == exported


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    assert namespace["report"].classification == "Weyl"
    assert [zc.count for zc in namespace["counts"]] == sorted(zc.count for zc in namespace["counts"])


@pytest.mark.parametrize("package", ["scipy", "numpy.polynomial"])
def test_import_loads_no_scipy(package):
    # numpy is the only dependency, and only the tests build polynomials
    # with numpy.polynomial: a fresh interpreter that imports the package
    # and its CLI must load neither
    code = (
        "import sys, resonance_sizer, resonance_sizer.cli; "
        f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))"
    )
    src = str(Path(resonance_sizer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


# Tolerances and limits that every caller left at their defaults are module
# constants (zeros._MAX_DEPTH, zeros._NEWTON_MAX_ITER, expoly._NEAR_FACTOR,
# _contours._RESIDUAL_TOL); the functions that took them keep these
# parameters.
TRIMMED = {
    resonance_sizer.genericity_scan: ("n", "trials", "seed"),
    resonance_sizer.CancellationReport.near_cancellations: ("self",),
    resonance_sizer.count_zeros_disk: ("fdf", "radius", "center", "freq_scale"),
    zeros.count_zeros_rect: ("fdf", "rect", "freq_scale"),
    resonance_sizer.find_resonances: ("fdf", "region", "freq_scale"),
    resonance_sizer.counting_function: ("strengths", "config", "radii", "freq_tol", "cancel_tol"),
    zeros.newton_polish: ("fdf", "z0"),
    zeros._disk_counts: ("epoly", "radii"),
    zeros._split_box: ("fdf", "box", "count", "freq_scale"),
    _contours.winding: ("fdf", "contour", "freq_scale"),
    _contours.moved_counts: ("fdf", "contour", "hug", "signs", "freq_scale"),
    _contours.multiplicities: ("fdf", "band", "h", "freq_scale"),
    _contours.closed_count: ("fdf", "contour", "freq_scale"),
}


@pytest.mark.parametrize(
    "fn, params", TRIMMED.items(), ids=[f"{f.__module__}.{f.__qualname__}" for f in TRIMMED]
)
def test_trimmed_signatures(fn, params):
    assert tuple(inspect.signature(fn).parameters) == params


def test_one_refinement_loop():
    assert not hasattr(_contours, "levels") and not hasattr(_contours, "settle")
    assert not hasattr(zeros, "DEFAULT_RESIDUAL_TOL")
