"""Per-layer spans installed from outside the program.

The tracer wraps every public function of each package module (plus
ExpoPolynomial.evaluate and .derivative) and rebinds the wrapper wherever a
module holds the original, so calls through re-bound imports such as
`cli.expand` or `zeros.expand` are recorded too.  A span records calls,
inclusive time and self time (inclusive minus child spans); hooks read
counters off arguments and return values at the same boundary.  Spans are
aggregated in memory as they close.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("geometry", "permutations", "sizing", "_sweep", "expoly", "gammadet", "zeros", "asymptotics", "cli")

# name, unit, better, the end-to-end metric it should move, workloads that
# load it.  BENCHMARK.json lists the same names, units and directions.
PER_LAYER = [
    ("expoly.expand.calls", "count/round", "lower", "wall_s task_s.p50", "classify-n8 scan-n5"),
    ("expoly.expand.s", "s/round", "lower", "wall_s task_s.p50", "classify-n8 scan-n5"),
    ("expoly.expand.self_s", "s/round", "lower", "wall_s task_s.p50", "classify-n8 scan-n5"),
    ("expoly.expand.groups", "count/round", "lower", "wall_s task_s.p50", "classify-n8 scan-n5"),
    ("expoly.expand.groups_cancelled", "count/round", "lower", "wall_s task_s.p50", "classify-n8"),
    ("expoly.expand.groups_near", "count/round", "lower", "wall_s task_s.p50", "classify-n8"),
    ("expoly.expand.terms_out", "count/round", "lower", "wall_s task_s.p50", "classify-n8 scan-n5"),
    ("sweep.term_arrays.calls", "count/round", "lower", "wall_s peak_rss_mb", "classify-n8"),
    ("sweep.term_arrays.perms", "count/round", "lower", "wall_s peak_rss_mb", "classify-n8"),
    ("sweep.term_arrays.s", "s/round", "lower", "wall_s peak_rss_mb", "classify-n8"),
    ("sweep.term_arrays.bytes_computed", "B/round", "lower", "wall_s peak_rss_mb", "classify-n8"),
    ("expoly.evaluate.calls", "count/round", "lower", "wall_s", "count-n5 locate-n4"),
    ("expoly.evaluate.points", "count/round", "lower", "wall_s", "count-n5 locate-n4"),
    ("expoly.evaluate.term_points", "count/round", "lower", "wall_s", "count-n5 locate-n4"),
    ("expoly.evaluate.s", "s/round", "lower", "wall_s", "count-n5 locate-n4"),
    ("expoly.evaluate.ns_per_term_point", "ns", "lower", "wall_s", "count-n5 locate-n4"),
    ("expoly.derivative.s", "s/round", "lower", "wall_s", "count-n5 locate-n4"),
    ("zeros.count_zeros_disk.calls", "count/round", "lower", "wall_s", "count-n5"),
    ("zeros.count_zeros_disk.s", "s/round", "lower", "wall_s", "count-n5"),
    ("zeros.count_zeros_disk.self_s", "s/round", "lower", "wall_s", "count-n5"),
    ("zeros.count_zeros_disk.quadrature_points", "count/round", "lower", "wall_s", "count-n5"),
    ("zeros.count_zeros_disk.nudged", "count/round", "lower", "wall_s", "count-n5"),
    ("zeros.count_zeros_rect.calls", "count/round", "lower", "wall_s fail_ratio", "locate-n4"),
    ("zeros.count_zeros_rect.failed", "count/round", "lower", "wall_s fail_ratio", "locate-n4"),
    ("zeros.count_zeros_rect.s", "s/round", "lower", "wall_s fail_ratio", "locate-n4"),
    ("zeros.count_zeros_rect.self_s", "s/round", "lower", "wall_s fail_ratio", "locate-n4"),
    ("zeros.find_resonances.self_s", "s/round", "lower", "wall_s fail_ratio", "locate-n4"),
    ("zeros.find_resonances.root_nudged", "count/round", "lower", "wall_s fail_ratio", "locate-n4"),
    ("zeros.points_per_zero", "points/zero", "lower", "wall_s fail_ratio", "locate-n4"),
    ("zeros.newton_polish.calls", "count/round", "lower", "task_s.p50", "locate-n4"),
    ("zeros.newton_polish.converged", "count/round", "higher", "task_s.p50", "locate-n4"),
    ("zeros.newton_polish.s", "s/round", "lower", "task_s.p50", "locate-n4"),
    ("permutations.enumerate_classes.calls", "count/round", "lower", "setup_s task_s.p50", "classify-n8 scan-n5"),
    ("permutations.enumerate_classes.misses", "count/round", "lower", "setup_s task_s.p50", "classify-n8 scan-n5"),
    ("permutations.enumerate_classes.s", "s/round", "lower", "setup_s task_s.p50", "classify-n8 scan-n5"),
    ("sizing.is_generic.calls", "count/round", "lower", "setup_s task_s.p50", "classify-n8 scan-n5"),
    ("sizing.is_generic.self_s", "s/round", "lower", "setup_s task_s.p50", "classify-n8 scan-n5"),
    ("sizing.size_v.calls", "count/round", "lower", "setup_s task_s.p50", "classify-n8 scan-n5"),
    ("sizing.size_v.s", "s/round", "lower", "setup_s task_s.p50", "classify-n8 scan-n5"),
    ("geometry.distance_matrix.calls", "count/round", "lower", "wall_s", "scan-n5"),
    ("geometry.distance_matrix.s", "s/round", "lower", "wall_s", "scan-n5"),
    ("geometry.random_configuration.s", "s/round", "lower", "wall_s", "scan-n5"),
    ("asymptotics.genericity_scan.self_s", "s/round", "lower", "wall_s", "scan-n5"),
    ("asymptotics.classify.self_s", "s/round", "lower", "task_s.p50", "classify-n8"),
    ("cli.main.self_s", "s/round", "lower", "task_s.p50", "all"),
    ("gammadet.determinant_direct.calls", "count/round", "lower", "wall_s", "count-n5 locate-n4"),
    ("gammadet.gamma_matrix.calls", "count/round", "lower", "wall_s", "count-n5 locate-n4"),
    *[(f"{layer.lstrip('_')}.self_s", "s/round", "lower", "wall_s", "all") for layer in LAYERS],
    ("input.real_share", "share", "lower", "none (input property)", "all"),
    ("input.structured_share", "share", "lower", "none (input property)", "classify-n8"),
    ("input.nudge_share", "share", "lower", "none (input property)", "locate-n4"),
    ("input.edge_zero_share_drawn", "share", "lower", "none (input property)", "locate-n4"),
    ("input.groups.min", "groups", "lower", "none (input property)", "all"),
    ("input.groups.p50", "groups", "lower", "none (input property)", "all"),
    ("input.groups.max", "groups", "lower", "none (input property)", "all"),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced wall_s)", "all"),
    ("trace.rounds", "rounds", "higher", "none (rounds in the traced pass)", "all"),
]


class _Stat:
    __slots__ = ("calls", "failed", "s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.s = 0.0
        self.self_s = 0.0
        self.extra = Counter()


class _Frame:
    __slots__ = ("child_s", "points", "rect_children", "root_nudged")

    def __init__(self):
        self.child_s = 0.0
        self.points = 0
        self.rect_children = 0
        self.root_nudged = False


class Tracer:
    """Install with install(), run the work, then uninstall() and metrics()."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.stack: list[_Frame] = []
        self.groups: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._classes = None
        self._misses0 = 0
        self._hooks = {
            "expoly.expand": self._on_expand,
            "sweep.term_arrays": self._on_term_arrays,
            "expoly.evaluate": self._on_evaluate,
            "zeros.count_zeros_disk": self._on_disk,
            "zeros.count_zeros_rect": self._on_rect,
            "zeros.find_resonances": self._on_find,
            "zeros.newton_polish": self._on_newton,
        }

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"resonance_sizer.{layer}"]
            for attr, obj in vars(module).items():
                target = getattr(obj, "__wrapped__", obj)  # lru_cache
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(target)
                    or target.__module__ != module.__name__
                    or inspect.isgeneratorfunction(target)
                ):
                    continue
                name = f"{layer.lstrip('_')}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        self._classes = sys.modules["resonance_sizer.permutations"].enumerate_classes
        self._misses0 = self._classes.cache_info().misses
        cls = sys.modules["resonance_sizer.expoly"].ExpoPolynomial
        for method in ("evaluate", "derivative"):
            self._patch(cls, method, self._wrap(f"expoly.{method}", cls.__dict__[method]))
        # Rebind in every package module, so `from .x import f` copies are
        # wrapped as well as the defining module's name.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "resonance_sizer" and not mod_name.startswith("resonance_sizer."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset_stack(self) -> None:
        """Drop frames left open by a task interrupted at its deadline."""
        self.stack.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self.stack
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            ok = False
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                if stack and stack[-1] is frame:
                    stack.pop()
                parent = stack[-1] if stack else None
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - frame.child_s
                if not ok:
                    stat.failed += 1
                if hook is not None:
                    hook(stat, frame, parent, args, result, ok)
                if parent is not None:
                    parent.child_s += dt
                    parent.points += frame.points

        return wrapper

    # -------------------------------------------------------------- hooks

    def _on_expand(self, stat, frame, parent, args, result, ok):
        if ok:
            epoly, report = result
            stat.extra["groups"] += len(report.groups)
            stat.extra["groups_cancelled"] += len(report.cancelled_frequencies)
            stat.extra["groups_near"] += len(report.near_cancellations())
            stat.extra["terms_out"] += len(epoly.terms)
            self.groups.append(len(report.groups))

    def _on_term_arrays(self, stat, frame, parent, args, result, ok):
        if ok:
            stat.extra["perms"] += len(result[0])
            stat.extra["bytes_computed"] += sum(a.nbytes for a in result)

    def _on_evaluate(self, stat, frame, parent, args, result, ok):
        points = int(getattr(args[1], "size", 1))
        frame.points += points
        stat.extra["points"] += points
        stat.extra["term_points"] += points * len(args[0].terms)

    def _on_disk(self, stat, frame, parent, args, result, ok):
        if ok:
            stat.extra["quadrature_points"] += result.quadrature_points
            stat.extra["nudged"] += result.contour_radius != result.radius

    def _on_rect(self, stat, frame, parent, args, result, ok):
        if parent is not None:
            # find_resonances counts its root region first; a failure there
            # means the region had to be nudged.
            if parent.rect_children == 0 and not ok:
                parent.root_nudged = True
            parent.rect_children += 1

    def _on_find(self, stat, frame, parent, args, result, ok):
        stat.extra["root_nudged"] += frame.root_nudged
        if ok and result:
            stat.extra["zeros"] += sum(r.multiplicity for r in result)
            stat.extra["points_located"] += frame.points

    def _on_newton(self, stat, frame, parent, args, result, ok):
        if ok:
            stat.extra["converged"] += bool(result[1])

    # ------------------------------------------------------------ metrics

    def raw(self) -> dict[str, float]:
        """Totals over everything traced so far, by metric name."""
        out: dict[str, float] = {}
        layer_self = Counter()
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.failed"] = st.failed
            out[f"{name}.s"] = st.s
            out[f"{name}.self_s"] = st.self_s
            for key, value in st.extra.items():
                out[f"{name}.{key}"] = value
            layer_self[name.split(".")[0]] += st.self_s
        for layer in LAYERS:
            out[f"{layer.lstrip('_')}.self_s"] = layer_self[layer.lstrip("_")]
        out["permutations.enumerate_classes.misses"] = self._classes.cache_info().misses - self._misses0
        return out

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer metrics plus the two per-point ratios."""
        raw = self.raw()
        out = {}
        for name, unit, *_ in PER_LAYER:
            if unit.endswith("/round"):
                out[name] = raw.get(name, 0) / rounds
        term_points = raw.get("expoly.evaluate.term_points", 0)
        out["expoly.evaluate.ns_per_term_point"] = (
            1e9 * raw.get("expoly.evaluate.s", 0.0) / term_points if term_points else 0.0
        )
        zeros = raw.get("zeros.find_resonances.zeros", 0)
        out["zeros.points_per_zero"] = (
            raw.get("zeros.find_resonances.points_located", 0) / zeros if zeros else 0.0
        )
        if self.groups:
            out["input.groups.min"] = min(self.groups)
            out["input.groups.p50"] = statistics.median(self.groups)
            out["input.groups.max"] = max(self.groups)
        return out
