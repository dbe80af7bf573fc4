"""Command-line front end.

Subcommands: validate, expand, classify, count, resonances, scan.  Inputs
come from a JSON run configuration (see README); outputs are JSON on stdout
unless a command is CSV-native (count) or --csv is given.  Exit codes:
0 success, 2 configuration/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asymptotics import DEFAULT_CLASS_TOL, genericity_scan
from .asymptotics import classify as classify_report
from .errors import NumericalError, ValidationError
from .expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL, expand, zero_frequency_polynomial
from .geometry import Configuration, distance_matrix, validate_configuration
from .permutations import MAX_ENUM_N
from .sizing import DEFAULT_GAP_TOL, is_generic
from .zeros import Rectangle, counting_function, find_resonances

# Radii in a counting grid.  Every radius is a full winding count (about a
# millisecond at best), so a larger grid is a typo, and np.linspace would
# try to allocate it before the first count.
_MAX_STEPS = 10**6

_DEFAULT_TOLERANCES = {
    "freq_tol": DEFAULT_FREQ_TOL,
    "cancel_tol": DEFAULT_CANCEL_TOL,
    "gap_tol": DEFAULT_GAP_TOL,
    "class_tol": DEFAULT_CLASS_TOL,
}


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    config: Configuration
    strengths: np.ndarray
    tolerances: dict  # every key of _DEFAULT_TOLERANCES, each a finite float > 0
    radii: list[float] | None
    region: Rectangle | None


def _is_number(value) -> bool:
    """A JSON number: bool is an int subclass but no number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number in the float range: NaN, infinities and integers too
    large for a float fail (the comparison is exact for any int)."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _finite_fields(obj, keys: tuple[str, ...], what: str) -> list[float]:
    """The named fields of a JSON object, each a finite number, as floats."""
    if not isinstance(obj, dict) or not all(k in obj for k in keys):
        raise ValidationError(f"{what} must be an object with keys {', '.join(keys)}")
    bad = [k for k in keys if not _is_finite_number(obj[k])]
    if bad:
        raise ValidationError(f"{what} values must be finite numbers, got {bad[0]}={obj[bad[0]]!r}")
    return [float(obj[k]) for k in keys]


def _parse_strength(entry, index: int) -> complex:
    pair = isinstance(entry, (list, tuple)) and len(entry) == 2
    parts = entry if pair else [entry]
    if all(map(_is_number, parts)):
        try:
            return complex(*parts)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValidationError(
        f"strengths[{index}] must be a number or an [re, im] pair, got {entry!r}"
    )


def load_run_config(path: str) -> RunConfig:
    """Load and validate the JSON run configuration."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    if "centers" not in raw:
        raise ValidationError("config is missing 'centers'")
    centers = raw["centers"]
    if not (
        isinstance(centers, list)
        and all(
            isinstance(p, list) and len(p) == 3 and all(map(_is_finite_number, p))
            for p in centers
        )
    ):
        raise ValidationError("centers must be a list of [x, y, z] triples of finite numbers")
    config = validate_configuration(centers)
    if "strengths" not in raw:
        raise ValidationError("config is missing 'strengths'")
    strengths_raw = raw["strengths"]
    if not isinstance(strengths_raw, list) or len(strengths_raw) != config.n:
        raise ValidationError(
            f"strengths must list {config.n} entries (one per center)"
        )
    strengths = np.array(
        [_parse_strength(e, i) for i, e in enumerate(strengths_raw)], dtype=complex
    )

    given = raw.get("tolerances", {})
    if not isinstance(given, dict):
        raise ValidationError("tolerances must be a JSON object")
    unknown = set(given) - set(_DEFAULT_TOLERANCES)
    if unknown:
        raise ValidationError(f"unknown tolerance keys: {sorted(unknown)}")
    for key, value in given.items():
        if not (_is_finite_number(value) and value > 0):
            raise ValidationError(f"tolerance {key} must be a finite number > 0, got {value!r}")
    tolerances = {**_DEFAULT_TOLERANCES, **{k: float(v) for k, v in given.items()}}

    radii = None
    if "counting" in raw:
        r_min, r_max, steps = _finite_fields(
            raw["counting"], ("r_min", "r_max", "steps"), "counting grid"
        )
        if not steps.is_integer():
            raise ValidationError(f"counting grid steps must be a whole number, got {steps!r}")
        steps = int(steps)
        if not 1 <= steps <= _MAX_STEPS or r_min <= 0 or (steps > 1 and r_max <= r_min):
            raise ValidationError(
                f"counting grid needs r_max > r_min > 0, 1 <= steps <= {_MAX_STEPS}"
            )
        radii = [float(r) for r in np.linspace(r_min, r_max, steps)]

    region = None
    if "region" in raw:
        bounds = _finite_fields(raw["region"], ("re_min", "re_max", "im_min", "im_max"), "region")
        region = Rectangle(*bounds)

    return RunConfig(
        config=config,
        strengths=strengths,
        tolerances=tolerances,
        radii=radii,
        region=region,
    )


def _emit_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_validate(args) -> int:
    rc = load_run_config(args.config)
    d = distance_matrix(rc.config)
    off = d[~np.eye(rc.config.n, dtype=bool)]
    _emit_json(
        {"valid": True, "n": rc.config.n, "min_distance": float(off.min())}
    )
    return 0


def _expand(rc: RunConfig):
    tol = rc.tolerances
    return expand(rc.strengths, rc.config, freq_tol=tol["freq_tol"], cancel_tol=tol["cancel_tol"])


def cmd_expand(args) -> int:
    rc = load_run_config(args.config)
    epoly, cancels = _expand(rc)
    if args.csv:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "frequencies.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["term_index", "frequency"])
            for i, b in enumerate(epoly.frequencies.tolist()):
                writer.writerow([i, repr(b)])
        with open(out_dir / "coefficients.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["term_index", "power", "re", "im"])
            for i, term in enumerate(epoly.to_jsonable()):
                for p, (re, im) in enumerate(term["coefficients"]):
                    writer.writerow([i, p, repr(re), repr(im)])
        return 0
    _emit_json(
        {
            "n": rc.config.n,
            "frequencies": epoly.frequencies.tolist(),
            "effective_size": epoly.effective_size,
            "terms": epoly.to_jsonable(),
            "cancellation": {
                "groups": [
                    {
                        "frequency": g.frequency,
                        "pre_scale": g.pre_scale,
                        "post_scale": g.post_scale,
                        "cancelled": g.cancelled,
                    }
                    for g in cancels.groups
                ],
                "cancelled_frequencies": list(cancels.cancelled_frequencies),
                "freq_tol": cancels.freq_tol,
                "cancel_tol": cancels.cancel_tol,
            },
        }
    )
    return 0


def cmd_classify(args) -> int:
    rc = load_run_config(args.config)
    tol = rc.tolerances
    report = classify_report(
        rc.strengths,
        rc.config,
        radii=rc.radii if args.with_counts else None,
        class_tol=tol["class_tol"],
        freq_tol=tol["freq_tol"],
        cancel_tol=tol["cancel_tol"],
    )
    # the class test sweeps S_N, so above its cap genericity is left open
    generic = None
    if rc.config.n <= MAX_ENUM_N:
        generic = is_generic(rc.config, gap_tol=tol["gap_tol"]).is_generic
    _emit_json(
        {
            "n": rc.config.n,
            "b_nu": report.b_nu,
            "v": report.v,
            "classification": report.classification,
            "class_margin": report.class_margin,
            "relative_discrepancies": report.relative_discrepancies,
            "is_generic": generic,
            "radii": list(report.radii) if report.radii else None,
            "counts": list(report.counts) if report.counts else None,
            "fitted_slope": report.fitted_slope,
            "fitted_intercept": report.fitted_intercept,
            "w_est": report.w_est,
        }
    )
    return 0


def cmd_count(args) -> int:
    rc = load_run_config(args.config)
    if rc.radii is None:
        raise ValidationError("count requires a 'counting' grid in the config")
    counts = counting_function(
        rc.strengths,
        rc.config,
        rc.radii,
        freq_tol=rc.tolerances["freq_tol"],
        cancel_tol=rc.tolerances["cancel_tol"],
    )
    writer = csv.writer(sys.stdout)
    writer.writerow(["R", "count", "winding_residual"])
    for zc in counts:
        writer.writerow([repr(zc.radius), zc.count, repr(zc.winding_residual)])
    return 0


def cmd_resonances(args) -> int:
    rc = load_run_config(args.config)
    if rc.region is None:
        raise ValidationError("resonances requires a 'region' in the config")
    if args.p0_only:
        epoly = zero_frequency_polynomial(rc.strengths)
        freq_scale = 1.0
    else:
        epoly, _ = _expand(rc)
        freq_scale = max(epoly.effective_size, 1e-3)
    found = find_resonances(epoly.value_and_derivative, rc.region, freq_scale=freq_scale)
    rows = [
        {
            "re": r.location.real,
            "im": r.location.imag,
            "multiplicity": r.multiplicity,
            "residual": r.residual,
            "cluster": r.is_cluster,
        }
        for r in found
    ]
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["re", "im", "multiplicity", "residual", "cluster"])
        for row in rows:
            writer.writerow(
                [
                    repr(row["re"]),
                    repr(row["im"]),
                    row["multiplicity"],
                    repr(row["residual"]),
                    int(row["cluster"]),
                ]
            )
        return 0
    _emit_json({"resonances": rows})
    return 0


def cmd_scan(args) -> int:
    summary = genericity_scan(args.n, args.trials, args.seed)
    _emit_json(
        {
            "n": summary.n,
            "trials": summary.trials,
            "seed": summary.seed,
            "fraction_generic": summary.fraction_generic,
            "fraction_weyl": summary.fraction_weyl,
            "min_gap_quantiles": summary.min_gap_quantiles,
            "near_cancellation_count": summary.near_cancellation_count,
            "near_cancellation_trials": list(summary.near_cancellation_trials),
        }
    )
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state on it, and building it costs about 20 times a parse."""
    parser = argparse.ArgumentParser(
        prog="resonance-sizer",
        description=(
            "Characteristic-determinant expansion, effective size, resonance "
            "counting, and Weyl classification for 3-D point-interaction "
            "Hamiltonians."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="path to JSON run config")

    p = sub.add_parser("validate", help="validate a run config")
    add_config(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("expand", help="canonical exponential-polynomial form")
    add_config(p)
    p.add_argument("--csv", action="store_true", help="write frequencies.csv and coefficients.csv")
    p.add_argument("--out", default=".", help="directory for CSV output")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("classify", help="Weyl / non-Weyl classification")
    add_config(p)
    p.add_argument(
        "--with-counts",
        action="store_true",
        help="also run the counting grid and fit the empirical slope",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count", help="counting function over the configured radii (CSV)")
    add_config(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("resonances", help="locate zeros in the configured region")
    add_config(p)
    p.add_argument("--csv", action="store_true", help="CSV rows instead of JSON")
    p.add_argument(
        "--p0-only",
        action="store_true",
        help="synthetic mode: use only the zero-frequency polynomial",
    )
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("scan", help="randomized genericity scan")
    p.add_argument("--n", type=int, required=True, help="number of centers")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        where = f" (at {exc.where})" if exc.where is not None else ""
        print(f"numerical failure: {exc}{where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
