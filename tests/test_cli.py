import csv
import json

import numpy as np
import pytest

from resonance_sizer import cli, random_configuration
from resonance_sizer.errors import QuadratureDivergence
from tests.conftest import DISPHENOID_B_NU, DISPHENOID_CENTERS, DISPHENOID_V


def write_config(tmp_path, name="config.json", **overrides):
    data = {
        "centers": [[0, 0, 0], [1, 0, 0]],
        "strengths": [[0.0, 0.0], [0.0, 0.0]],
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    rc, out, _ = run(capsys, "validate", "--config", path)
    assert rc == 0
    data = json.loads(out)
    assert data == {"valid": True, "n": 2, "min_distance": 1.0}


def test_validate_rejects_coincident(tmp_path, capsys):
    path = write_config(tmp_path, centers=[[0, 0, 0], [0, 0, 0]])
    rc, _, err = run(capsys, "validate", "--config", path)
    assert rc == 2
    assert "coincide" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "classify", "--config", str(path))
    assert rc == 2
    assert "malformed" in err


def test_missing_strengths_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"centers": [[0, 0, 0], [1, 0, 0]]}))
    rc, _, err = run(capsys, "expand", "--config", str(path))
    assert rc == 2
    assert "strengths" in err


@pytest.mark.parametrize(
    "tolerances",
    [{"freq_tol": "x"}, [1, 2], {"freq_tol": -1}, {"cancel_tol": float("nan")}, {"gap_tol": True}],
    ids=["string", "list", "negative", "nan", "bool"],
)
def test_malformed_tolerances_exit_2(tmp_path, capsys, tolerances):
    path = write_config(tmp_path, tolerances=tolerances)
    rc, _, err = run(capsys, "expand", "--config", path)
    assert rc == 2
    assert "tolerance" in err


@pytest.mark.parametrize(
    "strengths",
    [[0, [0, "x"]], [True, 0], [0, [True, 0]], [10**400, 0]],
    ids=["pair-string", "bool", "pair-bool", "huge-int"],
)
def test_malformed_strengths_exit_2(tmp_path, capsys, strengths):
    path = write_config(tmp_path, strengths=strengths)
    rc, _, err = run(capsys, "validate", "--config", path)
    assert rc == 2
    assert "strengths[" in err


GRID = {"r_min": 5.0, "r_max": 20.0, "steps": 4}
REGION = {"re_min": 0.0, "re_max": 8.0, "im_min": -3.0, "im_max": 0.0}


@pytest.mark.parametrize(
    "overrides",
    [
        {"centers": [[0, 0, 10**400], [1, 0, 0]]},
        {"centers": [[0, 0, "x"], [1, 0, 0]]},
        {"centers": [[0, 0, 0], [1, 0]]},
        {"centers": [[0, 0, True], [1, 0, 0]]},
        {"counting": {**GRID, "r_min": 10**400}},
        {"counting": {**GRID, "r_max": 10**400}},
        {"counting": {**GRID, "r_min": float("nan")}},
        {"counting": {**GRID, "r_min": float("inf"), "steps": 1}},
        {"counting": {**GRID, "steps": 10**400}},
        {"counting": {**GRID, "steps": "1e400"}},
        {"counting": {**GRID, "steps": 10**7}},
        {"region": {**REGION, "im_min": -(10**400)}},
    ],
    ids=[
        "centers-huge-int",
        "centers-string",
        "centers-ragged",
        "centers-bool",
        "r_min-huge-int",
        "r_max-huge-int",
        "r_min-nan",
        "r_min-infinity",
        "steps-huge-int",
        "steps-1e400",
        "steps-too-many",
        "region-huge-int",
    ],
)
@pytest.mark.parametrize("command", ["validate", "count", "resonances"])
def test_malformed_numbers_exit_2(tmp_path, capsys, overrides, command):
    data = {"counting": GRID, "region": REGION, **overrides}
    path = write_config(tmp_path, **data)
    # a JSON 1e400 literal, which json.loads reads as infinity
    text = open(path).read().replace('"1e400"', "1e400")
    open(path, "w").write(text)
    rc, _, err = run(capsys, command, "--config", path)
    assert rc == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["validate", "count", "classify"])
def test_fractional_steps_exit_2(tmp_path, capsys, command):
    path = write_config(tmp_path, counting={**GRID, "steps": 2.7})
    rc, out, err = run(capsys, command, "--config", path)
    assert (rc, out) == (2, "")
    assert err == "error: counting grid steps must be a whole number, got 2.7\n"


def test_integral_float_steps_accepted(tmp_path, capsys):
    path = write_config(tmp_path, counting={**GRID, "steps": 3.0})
    rc, out, _ = run(capsys, "count", "--config", path)
    assert rc == 0
    assert [row[0] for row in csv.reader(out.splitlines())] == ["R", "5.0", "12.5", "20.0"]
    path = write_config(tmp_path, counting={**GRID, "steps": 1e6})
    rc, out, _ = run(capsys, "validate", "--config", path)
    assert rc == 0 and json.loads(out)["valid"] is True


def test_main_calls_share_no_state(tmp_path, capsys):
    path = write_config(tmp_path, counting={"r_min": 5.0, "r_max": 20.0, "steps": 4})
    rc, out, _ = run(capsys, "classify", "--config", path, "--with-counts")
    assert rc == 0
    assert json.loads(out)["counts"] is not None
    rc, out, _ = run(capsys, "classify", "--config", path)
    assert rc == 0
    assert json.loads(out)["counts"] is None
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify"])  # --config missing: argparse exits 2
    assert exc.value.code == 2
    capsys.readouterr()
    rc, out, _ = run(capsys, "validate", "--config", path)
    assert rc == 0
    assert json.loads(out)["valid"] is True


def test_config_with_seed_loads(tmp_path, capsys):
    path = write_config(tmp_path, seed="abc")
    rc, out, _ = run(capsys, "validate", "--config", path)
    assert rc == 0
    assert json.loads(out)["valid"] is True


@pytest.mark.parametrize(
    "strengths",
    [[[0.0, 0.0]] * 4, [[0.5, 0], [-1.0, 0], [0.25, 0], [2.0, 0]], [[0.5, 1], [0, -0.3], [1, -2], [0.1, 0]]],
    ids=["zero", "real", "complex"],
)
def test_classify_nonweyl_disphenoid(tmp_path, capsys, strengths):
    path = write_config(tmp_path, centers=DISPHENOID_CENTERS, strengths=strengths)
    rc, out, _ = run(capsys, "classify", "--config", path)
    assert rc == 0
    data = json.loads(out)
    assert data["classification"] == "NonWeyl"
    assert data["b_nu"] == pytest.approx(DISPHENOID_B_NU, rel=1e-12)
    assert data["v"] == pytest.approx(DISPHENOID_V, rel=1e-12)
    assert data["is_generic"] is False


def test_expand_json(tmp_path, capsys):
    path = write_config(tmp_path)
    rc, out, _ = run(capsys, "expand", "--config", path)
    assert rc == 0
    data = json.loads(out)
    assert data["frequencies"] == pytest.approx([0.0, 2.0])
    assert data["effective_size"] == pytest.approx(2.0)
    assert data["terms"][0]["coefficients"] == [[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
    assert data["cancellation"]["cancelled_frequencies"] == []


def test_expand_csv_files(tmp_path, capsys):
    path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    rc, _, _ = run(capsys, "expand", "--config", path, "--csv", "--out", str(out_dir))
    assert rc == 0
    with open(out_dir / "frequencies.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["term_index", "frequency"]
    assert [r[1] for r in rows[1:]] == ["0.0", "2.0"]
    with open(out_dir / "coefficients.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["term_index", "power", "re", "im"]
    assert len(rows) == 1 + 3 + 1  # header + deg-2 polynomial + constant
    values = [(int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows[1:]]
    assert values[2] == (0, 2, -1.0, 0.0)
    assert values[3] == (1, 0, -1.0, 0.0)


def test_classify_pair(tmp_path, capsys):
    path = write_config(tmp_path)
    rc, out, _ = run(capsys, "classify", "--config", path)
    assert rc == 0
    data = json.loads(out)
    assert data["classification"] == "Weyl"
    assert data["b_nu"] == pytest.approx(2.0)
    assert data["v"] == pytest.approx(2.0)
    assert data["is_generic"] is True
    assert data["counts"] is None


def test_classify_random_generic_n4(tmp_path, capsys):
    rng = np.random.default_rng(3)
    centers = rng.uniform(size=(4, 3)).tolist()
    path = write_config(tmp_path, centers=centers, strengths=[[0.1, 0.2]] * 4)
    rc, out, _ = run(capsys, "classify", "--config", path)
    assert rc == 0
    assert json.loads(out)["classification"] == "Weyl"


def test_classify_reports_class_margin(tmp_path, capsys):
    counting = {"r_min": 10.0, "r_max": 30.0, "steps": 3}
    path = write_config(tmp_path, counting=counting)
    rc, out, _ = run(capsys, "classify", "--config", path)
    assert rc == 0
    # the identity falls short of the swap by V = 2
    assert json.loads(out)["class_margin"] == pytest.approx(2.0)
    rc, out, _ = run(capsys, "classify", "--config", path, "--with-counts")
    assert rc == 0
    assert json.loads(out)["class_margin"] is None


def test_classify_above_enumeration_cap(tmp_path, capsys):
    centers = np.random.default_rng(20).uniform(size=(20, 3)).tolist()
    path = write_config(tmp_path, centers=centers, strengths=[[0.1, -0.2]] * 20)
    rc, out, _ = run(capsys, "classify", "--config", path)
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 20
    assert data["classification"] == "Weyl"
    assert data["b_nu"] == data["v"]
    assert data["class_margin"] > 0
    assert data["is_generic"] is None


def test_classify_uncertified_above_cap_exits_2(tmp_path, capsys):
    centers = [[float(k), 0.0, 0.0] for k in range(14)]
    path = write_config(tmp_path, centers=centers, strengths=[0.0] * 14)
    rc, out, err = run(capsys, "classify", "--config", path)
    assert rc == 2
    assert out == ""
    assert "not certified" in err
    assert "needs 4,233,600 rows" in err
    assert "cap of 3,628,800 rows per level" in err


def test_classify_decides_uncertified_shape_above_ten(tmp_path, capsys):
    # three tetragonal disphenoids 5 apart: V's maximizers tie, and the walk
    # down from V finds the top frequency cancelled
    one = np.array([[0.3, 0, 0], [-0.3, 0, 0], [0, 0.3, 1], [0, -0.3, 1]])
    centers = np.vstack([one + [5.0 * k, 0, 0] for k in range(3)]).tolist()
    path = write_config(tmp_path, centers=centers, strengths=[0.0] * 12)
    rc, out, _ = run(capsys, "classify", "--config", path)
    assert rc == 0
    data = json.loads(out)
    assert data["classification"] == "NonWeyl"
    assert data["b_nu"] < data["v"]
    assert data["class_margin"] is None
    assert data["is_generic"] is None


def test_count_csv(tmp_path, capsys):
    path = write_config(
        tmp_path, counting={"r_min": 5.0, "r_max": 20.0, "steps": 4}
    )
    rc, out, _ = run(capsys, "count", "--config", path)
    assert rc == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["R", "count", "winding_residual"]
    counts = [int(r[1]) for r in rows[1:]]
    assert len(counts) == 4
    assert counts == sorted(counts)
    assert all(float(r[2]) <= 1e-3 for r in rows[1:])


def test_count_requires_grid(tmp_path, capsys):
    path = write_config(tmp_path)
    rc, _, err = run(capsys, "count", "--config", path)
    assert rc == 2
    assert "counting" in err


def test_classify_with_counts_requires_grid(tmp_path, capsys):
    path = write_config(tmp_path)
    rc, out, err = run(capsys, "classify", "--config", path, "--with-counts")
    assert (rc, out) == (2, "")
    assert "classify --with-counts requires a 'counting' grid" in err


def test_count_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    path = write_config(
        tmp_path, counting={"r_min": 5.0, "r_max": 10.0, "steps": 2}
    )

    def boom(*args, **kwargs):
        raise QuadratureDivergence("no convergence", where=5.0)

    monkeypatch.setattr(cli, "counting_function", boom)
    rc, _, err = run(capsys, "count", "--config", path)
    assert rc == 3
    assert "5.0" in err


def test_count_overflow_exits_3(tmp_path, capsys):
    # b_nu = 4.94, so b_nu * R passes log(DBL_MAX) = 709.78 on both radii
    cfg = random_configuration(6, np.random.default_rng(2))
    path = write_config(
        tmp_path,
        centers=cfg.centers.tolist(),
        strengths=[[0.0, 0.0]] * 6,
        counting={"r_min": 155.0, "r_max": 160.0, "steps": 2},
    )
    rc, out, err = run(capsys, "count", "--config", path)
    assert rc == 3
    assert out == ""
    assert err.startswith("numerical failure: f or f' overflowed")
    assert "|z - 0.0| = 155.0" in err and "log(DBL_MAX) = 709.78" in err


@pytest.mark.parametrize("command", ["expand", "count", "resonances"])
def test_overflowing_strengths_exit_3_without_warning(tmp_path, capsys, command):
    # (i z - 4 pi a)^2 overflows at a = 1e200; the reduction's inf * 0 must
    # not reach stderr as a RuntimeWarning ahead of the failure line
    path = write_config(
        tmp_path,
        strengths=[1e200, 1e200],
        counting={"r_min": 20.0, "r_max": 200.0, "steps": 10},
        region={"re_min": 0.0, "re_max": 20.0, "im_min": -5.0, "im_max": 0.0},
    )
    rc, out, err = run(capsys, command, "--config", path)
    assert (rc, out) == (3, "")
    assert err == (
        "numerical failure: the expansion's coefficients overflow double precision "
        "(largest |4 pi a_j| is 1.26e+201)\n"
    )


@pytest.mark.parametrize("radius, nodes", [(6e5, 9_600_000), (5e5, 8_000_000)])
def test_count_past_node_budget_exits_3(tmp_path, capsys, radius, nodes):
    # centers 0.5 apart: b_nu = 1, so a count at R needs 2 * 8R nodes
    path = write_config(
        tmp_path,
        centers=[[0, 0, 0], [0.5, 0, 0]],
        counting={"r_min": radius, "r_max": 2 * radius, "steps": 2},
    )
    rc, out, err = run(capsys, "count", "--config", path)
    assert (rc, out) == (3, "")
    circle = f"|z - 0.0| = {radius!r}"
    assert err.startswith(f"numerical failure: a count on {circle} needs {nodes} nodes")
    assert "budget of 4194304 nodes" in err


def test_resonances_past_node_budget_exits_3(tmp_path, capsys):
    path = write_config(
        tmp_path, region={"re_min": 0.0, "re_max": 1e9, "im_min": -3.0, "im_max": 0.0}
    )
    rc, out, err = run(capsys, "resonances", "--config", path)
    assert (rc, out) == (3, "")
    assert err.startswith("numerical failure: a count on Rectangle(re_min=0.0, re_max=1000000000.0")
    assert "budget of 4194304 nodes" in err


def test_resonances_full_csv(tmp_path, capsys):
    path = write_config(
        tmp_path,
        region={"re_min": 0.0, "re_max": 8.0, "im_min": -3.0, "im_max": 0.0},
    )
    rc, out, _ = run(capsys, "resonances", "--config", path, "--csv")
    assert rc == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["re", "im", "multiplicity", "residual", "cluster"]
    assert len(rows) > 1
    for row in rows[1:]:
        z = complex(float(row[0]), float(row[1]))
        assert abs(z**2 + np.exp(2j * z)) <= 1e-8


def test_resonances_empty_region(tmp_path, capsys):
    path = write_config(
        tmp_path,
        region={"re_min": 100.0, "re_max": 101.0, "im_min": 100.0, "im_max": 101.0},
    )
    rc, out, _ = run(capsys, "resonances", "--config", path)
    assert rc == 0
    assert json.loads(out)["resonances"] == []


def test_resonances_requires_region(tmp_path, capsys):
    path = write_config(tmp_path)
    rc, _, err = run(capsys, "resonances", "--config", path)
    assert rc == 2
    assert "region" in err


def test_scan_reproducible(capsys):
    rc1, out1, _ = run(capsys, "scan", "--n", "3", "--trials", "20", "--seed", "9")
    rc2, out2, _ = run(capsys, "scan", "--n", "3", "--trials", "20", "--seed", "9")
    assert rc1 == rc2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["fraction_generic"] == 1.0


def test_scan_empty(capsys):
    rc, out, _ = run(capsys, "scan", "--n", "3", "--trials", "0")
    assert rc == 0
    data = json.loads(out)
    assert data["fraction_generic"] is None
    assert data["trials"] == 0


def test_scan_rejects_single_center(capsys):
    rc, _, err = run(capsys, "scan", "--n", "1", "--trials", "5")
    assert rc == 2
    assert "2" in err


def test_scan_rejects_oversized(capsys):
    rc, _, _ = run(capsys, "scan", "--n", "11", "--trials", "1")
    assert rc == 2


@pytest.mark.parametrize(
    "n, error", [("1", "need at least 2 centers"), ("11", "capped at N <= 10")]
)
def test_scan_rejects_impossible_n_without_trials(capsys, n, error):
    rc, out, err = run(capsys, "scan", "--n", n, "--trials", "0")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and error in err


@pytest.mark.parametrize(
    "argv",
    [["--n", "5", "--trials", "-3"], ["--n", "3", "--trials", "2", "--seed", "-1"]],
    ids=["negative-trials", "negative-seed"],
)
def test_scan_rejects_negative_trials_and_seed(capsys, argv):
    rc, out, err = run(capsys, "scan", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: trials and seed must be >= 0")


@pytest.mark.parametrize(
    "command, field",
    [
        ("validate", {}),
        ("classify", {}),
        ("count", {"counting": {"r_min": 5.0, "r_max": 20.0, "steps": 3}}),
        ("resonances", {"region": {"re_min": 0.0, "re_max": 4.0, "im_min": -2.0, "im_max": 0.0}}),
    ],
)
def test_command_computes_distances_once(tmp_path, capsys, distance_spy, command, field):
    path = write_config(tmp_path, centers=[[0, 0, 0], [1, 0, 0], [0, 2, 0]], strengths=[0, 0, 0], **field)
    rc, _, _ = run(capsys, command, "--config", path)
    assert rc == 0
    assert len(distance_spy) == 1
