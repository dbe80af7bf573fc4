"""Seeded inputs, task rounds and output oracles for the benchmark workloads.

A workload is a stream of rounds.  A round is the workload's fixed task set:
a fixed mix of CLI invocations whose inputs are drawn from a numpy generator
seeded by (seed, workload number, round index), so the same seed always
gives the same inputs.  The program only ever sees the generated JSON run configs
and CLI arguments.

Oracles run after the timed region.  They use numpy and the program's direct
determinant path (gammadet), never the expansion under test, and return a
reason string when they reject an output.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

FOUR_PI = 4 * np.pi
# The program's documented default genericity gap (README "tolerances").
GAP_TOL = 1e-9
# README-shaped search region for `resonances`.
REGION = {"re_min": 0.0, "re_max": 6.0, "im_min": -3.0, "im_max": 0.0}
# Latency limit of a locate task with a zero on the Re = 0 edge (see WORKLOADS).
EDGE_DEADLINE_S = 0.15
# Counting radius as a multiple of 1/V: just below the ~700 overflow limit
# of the expanded evaluation.
COUNT_VR = 600.0
COUNT_N = 5
SCAN_N = 5
SCAN_TRIALS = 25
# |D(z)| / (4 pi)^N / prod_j |G_j(z)| above this rejects a reported zero.
# Rounding leaves ~1e-12 at a true zero; a point 1e-3 away reads ~1e-4.
ZERO_REL_TOL = 1e-8
_ORACLE_CHUNK = 8192
_ORACLE_MAX_POINTS = 1 << 20


@dataclass
class Task:
    """One CLI invocation plus what its oracle needs."""

    argv: list
    kind: str
    real: bool = False
    structured: bool = False
    nudge: bool = False
    expect: dict = field(default_factory=dict)
    # Latency limit for an input the program is known not to finish on
    # (it runs ~15 s to ContourThroughZero); None keeps the workload's.
    deadline_s: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable  # (seed, round_index, workdir) -> list[Task]
    check: Callable  # (rs, task, stdout) -> reason or None
    warm_up: Callable  # (rs) -> None
    # Latency limit per task; a task past it counts as failed.  Far above
    # the slowest successful task seen, so which tasks fail does not depend
    # on the speed of the host.
    deadline_s: float
    # Expected round time on a 2-vCPU sandbox; fixes the traced round count.
    nominal_round_s: float


# ---------------------------------------------------------------- geometry


def distances(pts: np.ndarray) -> np.ndarray:
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)


def _random_centers(rng, n: int, min_gap: float = 1e-3) -> np.ndarray:
    """n points uniform in the unit cube, redrawn until min_gap apart."""
    while True:
        pts = rng.uniform(0.0, 1.0, size=(n, 3))
        if distances(pts)[~np.eye(n, dtype=bool)].min() >= min_gap:
            return pts


def _rigid_scaled(rng, pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Seeded rotation, translation and scale of a point set."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    scale = float(rng.uniform(0.5, 2.0))
    shift = rng.uniform(-10.0, 10.0, size=3)
    return scale * pts @ q.T + shift, scale


def _double_disphenoid() -> np.ndarray:
    one = np.array([[0.3, 0, 0], [-0.3, 0, 0], [0, 0.3, 1], [0, -0.3, 1]])
    return np.vstack([one, one + [5.0, 0.0, 0.0]])


# name -> (canonical centers, known verdict, b_nu at the canonical placement).
# Cube, octagon and equally spaced points attain V = b_nu in closed form
# (antipodal / reversing assignments).  In each tetragonal disphenoid three
# fixed-point-free classes tie at the top frequency and cancel for every
# strength choice, so the pair is NonWeyl; its b_nu was measured with
# `expand` at the canonical placement (V = 40.8657 there).
SHAPES = {
    "cube": (np.array(list(itertools.product((0.0, 1.0), repeat=3))), "Weyl", 8 * math.sqrt(3)),
    "octagon": (
        np.array([[math.cos(k * math.pi / 4), math.sin(k * math.pi / 4), 0.0] for k in range(8)]),
        "Weyl",
        16.0,
    ),
    "collinear": (np.array([[float(k), 0.0, 0.0] for k in range(8)]), "Weyl", 32.0),
    "double-disphenoid": (_double_disphenoid(), "NonWeyl", 40.529987637148494),
}
SHAPE_NAMES = tuple(SHAPES)


@lru_cache(maxsize=None)
def _perm_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of n and one member index per edge-equivalence class.

    Two permutations are edge-equivalent when their undirected bond
    multigraphs agree, so every class member has the same total bond length.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    ar = np.arange(n)
    codes = np.sort(np.minimum(perms, ar) * n + np.maximum(perms, ar), axis=1)
    _, first = np.unique(codes, axis=0, return_index=True)
    return perms, first


def size_summary(pts: np.ndarray) -> tuple[float, float]:
    """Brute-force V and the minimum gap between class values, from a full
    sweep over S_N."""
    n = len(pts)
    perms, first = _perm_table(n)
    v_all = distances(pts)[np.arange(n), perms].sum(axis=1)
    return float(v_all.max()), float(np.diff(np.sort(v_all[first])).min())


# ------------------------------------------------------- direct determinant


def gamma_batch(strengths, pts: np.ndarray, z: np.ndarray, potentials=None):
    """Interaction matrix G(z) and its derivative G'(z) at every point of z.

    Same entries as gammadet.gamma_matrix, batched over points.  With
    potentials (u, v), entry (j, k) of both is multiplied by
    e^{-t (u_j + v_k)}, t = max(-Im z, 0), inside the exponent, so nothing
    overflows in the lower half-plane.
    """
    d = distances(pts)
    n = len(pts)
    eye = np.eye(n, dtype=bool)
    safe = np.where(eye, 1.0, d)
    shift = np.zeros((len(z), n, n))
    if potentials is not None:
        u, v = potentials
        shift = np.maximum(-z.imag, 0.0)[:, None, None] * (u[:, None] + v[None, :])
    e = np.exp(1j * z[:, None, None] * safe - shift)
    diag = np.exp(-shift[:, eye])
    g = -e / (FOUR_PI * safe)
    g[:, eye] = (np.asarray(strengths) - 1j * z[:, None] / FOUR_PI) * diag
    gp = -1j * e / FOUR_PI
    gp[:, eye] = -1j / FOUR_PI * diag
    return g, gp


def assignment_potentials(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal duals of the max-weight assignment on d: u_j + v_k >= d_jk,
    with equality on a maximizing permutation (fixed points weigh 0).

    Hungarian method with potentials on the cost -d (O(N^3)).
    """
    n = len(d)
    cost = -d
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=int)  # match[col] = row, 1-based, 0 = free
    for row in range(1, n + 1):
        match[0] = row
        col0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        way = np.zeros(n + 1, dtype=int)
        while match[col0] != 0:
            used[col0] = True
            i0 = match[col0]
            delta, col1 = np.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, col0
                    if minv[j] < delta:
                        delta, col1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            col0 = col1
        while col0:
            col1 = way[col0]
            match[col0] = match[col1]
            col0 = col1
    return -u[1:], -v[1:]


def direct_disk_count(strengths, pts: np.ndarray, radius: float, start: int) -> int | None:
    """Zeros of det G in |z| < radius from the log-derivative tr(G^-1 G').

    G and G' are scaled two-sidedly by the assignment potentials of the
    distance matrix (tr(G^-1 G') is invariant under that): each scaled
    entry is at most O(1) and the maximizing assignment's entries are O(1),
    so LU keeps its digits where row scaling alone loses them.  Trapezoid
    points double until the sum is integral to 1e-4, or two rounded sums
    agree within 1e-3; None if that needs more than _ORACLE_MAX_POINTS.
    """
    potentials = assignment_potentials(distances(pts))
    m = start
    previous = None
    while m <= _ORACLE_MAX_POINTS:
        total = 0j
        for lo in range(0, m, _ORACLE_CHUNK):
            z = radius * np.exp(2j * np.pi * np.arange(lo, min(m, lo + _ORACLE_CHUNK)) / m)
            g, gp = gamma_batch(strengths, pts, z, potentials)
            total += np.sum(np.einsum("pii->p", np.linalg.solve(g, gp)) * z)
        raw = total / m
        if not np.isfinite(raw):
            previous = None
        else:
            count = int(round(raw.real))
            residual = abs(raw - count)
            # A resolved trapezoid sum is integral to far below 1e-4; a zero
            # near the circle leaves it off-integer until the points resolve it.
            if residual <= 1e-4 or (count == previous and residual <= 1e-3):
                return count
            previous = count
        m *= 2
    return None


def has_axis_zero(strengths, pts: np.ndarray, depth: float, samples: int = 601) -> bool:
    """Whether det G changes sign on the segment z = -it, 0 <= t <= depth.

    With real strengths the spectrum is symmetric about Re z = 0 and det G is
    real on that segment, so a sign change puts a zero on the Re = 0 edge of
    the search region.
    """
    z = -1j * np.linspace(0.0, depth, samples)
    det = np.linalg.det(gamma_batch(strengths, pts, z)[0]).real
    return bool(np.any(np.sign(det[1:]) != np.sign(det[:-1])))


# --------------------------------------------------------------- run configs


def _strength_json(a: np.ndarray) -> list:
    if np.iscomplexobj(a):
        return [[float(x.real), float(x.imag)] for x in a]
    return [float(x) for x in a]


def _write_config(workdir, name: str, pts: np.ndarray, a: np.ndarray, **extra) -> str:
    path = Path(workdir) / f"{name}.json"
    data = {"centers": pts.tolist(), "strengths": _strength_json(a), **extra}
    path.write_text(json.dumps(data))
    return str(path)


def _complex_strengths(rng, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# ---------------------------------------------------------------- classify


def classify_round(seed: int, r: int, workdir) -> list:
    """Three random N = 8 configurations and one structured one, all with
    seeded complex strengths; the structured shape cycles with the round."""
    rng = np.random.default_rng([seed, 0, r])
    tasks = []
    for i in range(3):
        pts = _random_centers(rng, 8)
        a = _complex_strengths(rng, 8)
        path = _write_config(workdir, f"classify-{r}-{i}", pts, a)
        tasks.append(Task(["classify", "--config", path], "random", expect={"centers": pts}))
    shape = SHAPE_NAMES[(seed + r) % len(SHAPE_NAMES)]
    canonical, verdict, b_nu = SHAPES[shape]
    pts, scale = _rigid_scaled(rng, canonical)
    a = _complex_strengths(rng, 8)
    path = _write_config(workdir, f"classify-{r}-s", pts, a)
    tasks.append(
        Task(
            ["classify", "--config", path],
            shape,
            structured=True,
            expect={"centers": pts, "verdict": verdict, "b_nu": scale * b_nu},
        )
    )
    return tasks


def classify_check(rs, task: Task, stdout: str) -> str | None:
    out = json.loads(stdout)
    v, min_gap = size_summary(task.expect["centers"])
    if out["n"] != 8:
        return f"n = {out['n']}"
    if not math.isclose(out["v"], v, rel_tol=1e-9):
        return f"V = {out['v']!r}, brute force gives {v!r}"
    # Random configurations are generic almost surely, and generic ones are Weyl.
    verdict = task.expect.get("verdict", "Weyl")
    b_nu = task.expect.get("b_nu", v)
    if out["classification"] != verdict:
        return f"{task.kind}: verdict {out['classification']}, known {verdict}"
    if not math.isclose(out["b_nu"], b_nu, rel_tol=1e-8):
        return f"{task.kind}: b_nu = {out['b_nu']!r}, known {b_nu!r}"
    if task.structured:
        generic = False
    else:
        tol = GAP_TOL * max(1.0, v)
        if abs(min_gap - tol) <= 1e-12 * max(1.0, v):
            return None  # borderline: either answer is within rounding
        generic = min_gap > tol
    if out["is_generic"] is not generic:
        return f"{task.kind}: is_generic = {out['is_generic']}, class sweep gives {generic}"
    return None


def classify_warm_up(rs) -> None:
    rs.enumerate_classes.cache_clear()
    rs.enumerate_classes(8)


# -------------------------------------------------------------------- scan


def scan_round(seed: int, r: int, workdir) -> list:
    """Four `scan --n 5` calls with distinct seeds: thousands of tiny
    expansions per run."""
    rng = np.random.default_rng([seed, 1, r])
    return [
        Task(
            ["scan", "--n", str(SCAN_N), "--trials", str(SCAN_TRIALS), "--seed", str(s)],
            "scan",
            real=True,
        )
        for s in rng.integers(0, 2**31, size=4)
    ]


def scan_check(rs, task: Task, stdout: str) -> str | None:
    out = json.loads(stdout)
    if out["n"] != SCAN_N or out["trials"] != SCAN_TRIALS:
        return f"scan echoed n={out['n']} trials={out['trials']}"
    # Regenerate the scan's trials (the program's seeded generator) and
    # decide genericity by brute force; a trial within rounding of the gap
    # tolerance may go either way.
    scan_seed = int(task.argv[task.argv.index("--seed") + 1])
    streams = np.random.SeedSequence(scan_seed).spawn(SCAN_TRIALS)
    sure = maybe = 0
    for stream in streams:
        pts = np.asarray(rs.random_configuration(SCAN_N, np.random.default_rng(stream)).centers)
        v, min_gap = size_summary(pts)
        tol = GAP_TOL * max(1.0, v)
        if abs(min_gap - tol) <= 1e-12 * max(1.0, v):
            maybe += 1
        elif min_gap > tol:
            sure += 1
    generic = round(out["fraction_generic"] * SCAN_TRIALS)
    if not sure <= generic <= sure + maybe:
        return (
            f"fraction_generic={out['fraction_generic']}, "
            f"class sweep gives {sure}..{sure + maybe} of {SCAN_TRIALS}"
        )
    # Uniform random configurations are Weyl almost surely (a class gap
    # below the tolerance is still a gap).
    if out["fraction_weyl"] != 1.0:
        return f"fraction_weyl={out['fraction_weyl']}, expected 1.0"
    return None


def scan_warm_up(rs) -> None:
    rs.enumerate_classes.cache_clear()
    rs.enumerate_classes(SCAN_N)


# ------------------------------------------------------------------- count


def count_round(seed: int, r: int, workdir) -> list:
    """One random N = 5 configuration with real strengths, counted by one
    `count` call on the disk V·R < COUNT_VR.

    A round holds a single task: about one task in four needs extra
    refinement (2-10x the median), so a round of several would mix that in.
    """
    rng = np.random.default_rng([seed, 2, r])
    pts = _random_centers(rng, COUNT_N)
    a = rng.normal(size=COUNT_N)
    radius = COUNT_VR / size_summary(pts)[0]
    grid = {"r_min": radius, "r_max": radius, "steps": 1}
    path = _write_config(workdir, f"count-{r}", pts, a, counting=grid)
    return [Task(["count", "--config", path], "count", real=True, expect={"centers": pts, "strengths": a})]


def count_check(rs, task: Task, stdout: str) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["R", "count", "winding_residual"] or len(rows) != 2:
        return f"unexpected CSV layout: {rows[:3]}"
    radius, count = float(rows[1][0]), int(rows[1][1])
    pts, a = task.expect["centers"], task.expect["strengths"]
    # The batched oracle matrix must be the program's matrix.
    probe = np.array([radius * np.exp(0.3j), radius * np.exp(-2.1j)])
    for zk, gk in zip(probe, gamma_batch(a, pts, probe)[0]):
        if not np.allclose(gk, rs.gamma_matrix(a, pts, complex(zk)), rtol=1e-12, atol=0):
            return "oracle matrix differs from gammadet.gamma_matrix"
    start = 1 << math.ceil(math.log2(8 * COUNT_VR))
    direct = direct_disk_count(a, pts, radius, start)
    if direct is not None:
        if direct != count:
            return f"count {count} at R = {radius!r}, direct log-derivative gives {direct}"
        return None
    # A zero hugs the circle: the program may have counted on a nudged
    # contour, so accept any count between those of two nearby circles.
    inner = direct_disk_count(a, pts, radius * (1 - 1e-4), start)
    outer = direct_disk_count(a, pts, radius * (1 + 1e-4), start)
    if inner is None or outer is None:
        return f"direct log-derivative did not settle near R = {radius!r}"
    if not inner <= count <= outer:
        return f"count {count} at R = {radius!r}, direct log-derivative gives {inner}..{outer}"
    return None


# ------------------------------------------------------------------ locate


def locate_round(seed: int, r: int, workdir) -> list:
    """Four `resonances` calls at N = 4 on [0, 6] x [-3, 0]: two with complex
    strengths and two with real strengths, one of the real ones with a zero
    on the Re = 0 edge (which needs a root-region nudge) and one without.

    Real-strength draws are taken in order until both kinds are found; the
    draw counts are kept so the population share of edge zeros is reported.
    """
    rng = np.random.default_rng([seed, 3, r])
    tasks = []
    for i in range(2):
        pts = _random_centers(rng, 4)
        a = _complex_strengths(rng, 4)
        path = _write_config(workdir, f"locate-{r}-c{i}", pts, a, region=REGION)
        tasks.append(
            Task(["resonances", "--config", path], "complex", expect={"centers": pts, "strengths": a})
        )
    found = {}
    draws = []
    while len(found) < 2:
        pts = _random_centers(rng, 4)
        a = rng.normal(size=4)
        edge = has_axis_zero(a, pts, -REGION["im_min"])
        draws.append(edge)
        found.setdefault(edge, (pts, a))
    for edge in (True, False):
        pts, a = found[edge]
        path = _write_config(workdir, f"locate-{r}-r{int(edge)}", pts, a, region=REGION)
        expect = {"centers": pts, "strengths": a}
        if edge:
            expect["draws"] = (len(draws), sum(draws))
        tasks.append(
            Task(
                ["resonances", "--config", path],
                "real-edge-zero" if edge else "real",
                real=True,
                nudge=edge,
                expect=expect,
                deadline_s=EDGE_DEADLINE_S if edge else None,
            )
        )
    return tasks


def locate_check(rs, task: Task, stdout: str) -> str | None:
    rows = json.loads(stdout)["resonances"]
    pts, a = task.expect["centers"], task.expect["strengths"]
    pad = 1e-6 * max(REGION["re_max"] - REGION["re_min"], REGION["im_max"] - REGION["im_min"])
    for row in rows:
        z = complex(row["re"], row["im"])
        if not (
            REGION["re_min"] - pad <= z.real <= REGION["re_max"] + pad
            and REGION["im_min"] - pad <= z.imag <= REGION["im_max"] + pad
        ):
            return f"zero {z} outside the region"
        if row["cluster"]:
            continue
        g = rs.gamma_matrix(a, pts, z)
        bound = FOUR_PI ** len(pts) * np.prod(np.linalg.norm(g, axis=1))
        rel = abs(rs.determinant_direct(a, pts, z)) / bound
        if rel > ZERO_REL_TOL:
            return f"|D({z})| is {rel:.2e} of its Hadamard bound"
    return None


def no_warm_up(rs) -> None:
    pass


# Successful tasks never come near their workload's latency limit: the
# slowest seen took 8.9 s on count-n5 (a zero hugging the circle) and 1.7 s
# on locate-n4 (median 0.04 s).  A locate task with a zero on the Re = 0
# edge runs ~15 s before ContourThroughZero (none finished within 3 s), so
# it is cut at EDGE_DEADLINE_S, about four median locate tasks, and counts
# as failed; a fix that lets it finish within that limit shows as success.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify-n8", classify_round, classify_check, classify_warm_up, 30.0, 2.7),
        Workload("scan-n5", scan_round, scan_check, scan_warm_up, 10.0, 0.45),
        Workload("count-n5", count_round, count_check, no_warm_up, 60.0, 0.15),
        Workload("locate-n4", locate_round, locate_check, no_warm_up, 20.0, 0.3),
    )
}
