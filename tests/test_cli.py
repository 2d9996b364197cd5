import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthospec import cli, dynamics, spectrum, zetafns


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Output directories of one spectrum, poincare and oscint run each."""
    root = tmp_path_factory.mktemp("runs")
    configs = {
        "spectrum": {
            "dim": 2,
            "bodies": {"p": {"kind": "point"}, "q": {"kind": "point"}},
            "pair": ["p", "q"],
            "ranges": {"T": 20.0},
        },
        "poincare": {
            "dim": 3,
            "bodies": {"p": {"kind": "point"},
                       "q": {"kind": "point", "x": [0.9, 0.4, -1.1]}},
            "pair": ["p", "q"],
            "ranges": {"T": 150.0, "sweep": [1.0],
                       "poincare_s_grid": [[0.3, 0.0], [0.8, 1.1], [2.0, 0.0]]},
        },
        "oscint": {
            "dim": 3,
            "bodies": {},
            "ranges": {"t_grid": np.geomspace(40.0, 400.0, 6).tolist()},
        },
    }
    out = {}
    for command, raw in configs.items():
        out[command] = root / command
        out[command].mkdir()
        cfg = write_config(root / f"{command}.json", raw)
        assert cli.main([command, "--config", cfg, "--out", str(out[command])]) == 0
    return out


def test_volumes_ball(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 3,
        "bodies": {"B": {"kind": "ball", "center": [0, 0, 0], "radius": 0.5}},
    })
    assert cli.main(["volumes", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "volumes.json")["B"]
    want = {"V0": 1.0, "V1": 2.0, "V2": math.pi / 2.0, "V3": math.pi / 6.0}
    for key, val in want.items():
        assert rep["intrinsic"][key] == pytest.approx(val, abs=1e-8)
    echo = read_json(tmp_path / "config.resolved.json")
    assert echo["version"]
    assert echo["config"]["ranges"]["sweep"] == [1.0, 2.0, 4.0]
    assert (tmp_path / "volumes.gp").exists()


def test_spectrum_artifacts_and_multiplicity(runs):
    tmp_path = runs["spectrum"]
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    lengths = [float(r.split(",")[4]) for r in rows[1:]]
    hits = sum(1 for l in lengths if abs(l - 2.0 * math.pi) < 1e-9)
    assert hits == 4
    assert rows[0] == "xi_1,xi_2,theta_1,theta_2,length,phase_re,phase_im"
    counting = (tmp_path / "counting.csv").read_text().strip().splitlines()
    assert counting[0] == "T,count,model,weighted_re,weighted_im"
    meta = read_json(tmp_path / "spectrum.meta.json")
    assert meta["count"] == len(lengths)


def test_counting_model_counts_from_T0(tmp_path):
    # the count column starts at T0, so the model column is sum rho_k (T^k - T0^k) / k
    bodies = {"e": {"kind": "ellipsoid", "semiaxes": [1.3, 0.7]}, "o": {"kind": "point"}}
    cfg = write_config(tmp_path / "c.json", {"dim": 2, "bodies": bodies, "ranges": {"T": 30.0}})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    T0 = read_json(tmp_path / "spectrum.meta.json")["T0"]
    assert T0 > 5.0
    _, built = cli.load_config(cfg)
    rho = spectrum.density_coeffs(built["bodies"]["e"], built["bodies"]["o"])
    with open(tmp_path / "counting.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    for row in table:
        T = float(row["T"])
        want = sum(rho[k - 1] * (T**k - T0**k) / k for k in (1, 2))
        assert float(row["model"]) == pytest.approx(want, rel=1e-12, abs=0.0), T
    assert len(table) == 60


def test_worker_determinism_bytes(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"p": {"kind": "point"}, "q": {"kind": "point"}},
        "ranges": {"T": 25.0},
    })
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out1),
                     "--workers", "1"]) == 0
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out2),
                     "--workers", "3"]) == 0
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out3)]) == 0
    for name in ("spectrum.csv", "counting.csv", "spectrum.meta.json",
                 "config.resolved.json", "spectrum.gp"):
        base = (out1 / name).read_bytes()
        assert (out2 / name).read_bytes() == base
        assert (out3 / name).read_bytes() == base


def test_zeta_reports_residues_of_the_difference_body(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"E": {"kind": "ellipsoid", "semiaxes": [1.3, 0.7]},
                   "p": {"kind": "point"}},
        "pair": ["E", "p"],
    })
    assert cli.main(["zeta", "--config", cfg, "--out", str(tmp_path),
                     "--report-residues"]) == 0
    table = read_json(tmp_path / "residues.json")
    assert [row["pole"] for row in table] == [1, 2]
    perimeter = 6.425370742838925
    assert table[0]["residue_re"] == pytest.approx(
        perimeter / (2.0 * math.pi) ** 2, rel=1e-6)
    assert table[1]["residue_re"] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-9)
    vals = (tmp_path / "zeta_values.csv").read_text().strip().splitlines()
    assert vals[0] == "s_re,s_im,value_re,value_im"
    assert len(vals) > 3


def _irrational_twist_report(tmp_path, T):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"p": {"kind": "point"}, "q": {"kind": "point"}},
        "twist": {"beta0": [math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0)]},
        "ranges": {"T": T, "sweep": [1.0]},
    })
    assert cli.main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "twist.json")
    assert rep["mode"] == "suppressed"
    assert rep["weighted_re"] == rep["weighted_im"] == [0.0, 0.0]
    assert rep["deviation"] <= rep["bound"]
    return rep


def test_twisted_zeta_left_of_the_abscissa_writes_every_s(tmp_path):
    # a twisted series is continued like the untwisted one, at every s of the
    # grid; beta0 outside Z^d leaves no pole, so s = 2 is a value too
    beta = spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0)))
    cfg = write_config(tmp_path / "c.json", {
        **_POINT_PAIR, "twist": {"beta0": beta.beta0.tolist()},
        "ranges": {"T": 100.0, "sweep": [1.0], "zeta_s_grid": [[0.5, 0.0], [2.0, 1.0]]}})
    assert cli.main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
    grid = [0.5 + 0.0j, 2.0 + 1.0j]
    k1, k2 = cli._pair_bodies(*cli.load_config(cfg))
    model = zetafns.build_zeta_model(spectrum.enumerate(k1, k2, T=100.0, beta=beta))
    with open(tmp_path / "zeta_values.csv", newline="", encoding="utf-8") as fh:
        _, *body = list(csv.reader(fh))
    assert body == [[repr(s.real), repr(s.imag), repr(v.real), repr(v.imag)]
                    for s, v in ((s, zetafns.zeta_continue(model, s)) for s in grid)]
    echo = read_json(tmp_path / "config.resolved.json")["config"]["ranges"]["zeta_s_grid"]
    assert echo == [[0.5, 0.0], [2.0, 1.0]]


def test_zeta_twist_report(tmp_path):
    # sigma = (200 - 1) / 25 = 7.96 at delta = 0.59: the bound is 2.5e-5 rho_d
    rep = _irrational_twist_report(tmp_path, 200.0)
    assert rep["certified"] is True
    assert rep["bound"] <= 0.05 * zetafns._ball_density(2, 2)


def test_zeta_twist_report_on_a_short_window_is_uncertified(tmp_path):
    # sigma = 3.96: the bound reaches 40 % of rho_d, so nothing is certified
    rep = _irrational_twist_report(tmp_path, 100.0)
    assert rep["certified"] is False
    assert rep["bound"] > 0.05 * zetafns._ball_density(2, 2)


_POINT_PAIR = {"dim": 2, "bodies": {"a": {"kind": "point"},
                                    "b": {"kind": "point", "x": [0.9, 0.4]}}}


def test_weighted_twist_report_holds_what_it_certified(tmp_path):
    # beta0 = 0 with a nonzero f: certified when the leading weighted residue
    # and the empirical fit agree to 5 % of the untwisted density rho_d
    cfg = write_config(tmp_path / "c.json", {
        **_POINT_PAIR, "twist": {"modes": {"1,0": [0.2, 0.1], "-1,0": [0.2, -0.1]}},
        "ranges": {"T": 100.0, "sweep": [1.0]}})
    assert cli.main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "twist.json")
    assert sorted(rep) == ["bound", "certified", "deviation", "empirical_im", "empirical_re",
                           "mode", "weighted_im", "weighted_re"]
    assert rep["mode"] == "weighted"
    weighted = np.array(rep["weighted_re"]) + 1j * np.array(rep["weighted_im"])
    empirical = np.array(rep["empirical_re"]) + 1j * np.array(rep["empirical_im"])
    assert weighted.size == empirical.size == 2
    assert rep["deviation"] == abs(empirical[-1] - weighted[-1])
    rho_d = zetafns._ball_density(2, 2)
    assert rep["certified"] == (rep["deviation"] <= rep["bound"] <= 0.05 * rho_d)
    # every written coefficient, not only the lead, agrees with the spectrum
    assert np.max(np.abs(empirical - weighted)) <= 0.05 * rho_d


def test_zero_twist_written_out_is_no_twist(tmp_path):
    given = {"none": {}, "zero": {"twist": {"beta0": [0, 0], "modes": {}}}}
    for name, twist in given.items():
        cfg = write_config(tmp_path / f"{name}.json", {
            **_POINT_PAIR, **twist, "ranges": {"T": 200.0, "sweep": [1.0]}})
        for command in ("zeta", "poincare"):
            out = tmp_path / name / command
            out.mkdir(parents=True)
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    for command in ("zeta", "poincare"):
        # the resolved configs differ in how beta0 was written, 0 or 0.0
        names = {name: sorted(p.name for p in (tmp_path / name / command).iterdir()
                              if p.name != "config.resolved.json") for name in given}
        assert names["none"] == names["zero"]
        assert "twist.json" not in names["none"]
        for name in names["none"]:
            assert ((tmp_path / "none" / command / name).read_bytes()
                    == (tmp_path / "zero" / command / name).read_bytes()), (command, name)


def test_f_only_twist_is_twisted(tmp_path, capsys):
    # beta0 = 0 with a nonzero f is not the zero form
    cfg = write_config(tmp_path / "c.json", {
        **_POINT_PAIR, "twist": {"modes": {"1,0": [0.2, 0.1], "-1,0": [0.2, -0.1]}},
        "ranges": {"T": 100.0, "sweep": [1.0]}})
    assert cli.main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "twist.json")["mode"] == "weighted"
    assert cli.main(["zeta", "--config", cfg, "--out", str(tmp_path),
                     "--report-residues"]) == 2
    assert "untwisted" in capsys.readouterr().err


def test_resolved_config_records_the_enumerated_window(tmp_path):
    # a window left to its defaults is echoed as the one the run enumerated;
    # guinand enumerates from 0, the others from 2 (r_hi(a) + r_hi(b)) + 1
    ball = {"dim": 3, "bodies": {"a": {"kind": "ball", "radius": 0.3},
                                 "b": {"kind": "point", "x": [0.9, 0.4, -1.1]}}}
    points = {"dim": 3, "bodies": {"a": {"kind": "point"},
                                   "b": {"kind": "point", "x": [0.9, 0.4, -1.1]}}}
    cases = {
        "spectrum": (ball, (1.6, 50.0)),
        "zeta": (dict(ball, ranges={"sweep": [1.0]}), (1.6, 20.0 * math.pi)),
        "guinand": (points, (0.0, 50.0)),
    }
    for command, (raw, window) in cases.items():
        out = tmp_path / command
        cfg = write_config(tmp_path / f"{command}.json", raw)
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        ranges = read_json(out / "config.resolved.json")["config"]["ranges"]
        assert (ranges["T0"], ranges["T"]) == pytest.approx(window, rel=1e-15), command
        if command == "spectrum":
            meta = read_json(out / "spectrum.meta.json")
            assert (ranges["T0"], ranges["T"]) == (meta["T0"], meta["T"])


def test_poincare_on_a_lattice_shifted_point_pair(tmp_path):
    # y = x + 2 pi e1 is x on the torus: no dual-sum table, and no failure
    names = {}
    for name, y in (("equal", [0.0, 0.0, 0.0]), ("shifted", [2.0 * math.pi, 0.0, 0.0])):
        cfg = write_config(tmp_path / f"{name}.json", {
            "dim": 3, "bodies": {"x": {"kind": "point", "x": [0.0, 0.0, 0.0]},
                                 "y": {"kind": "point", "x": y}},
            "ranges": {"T": 80.0, "sweep": [1.0], "poincare_s_grid": [[1.0, 0.0], [2.0, 0.0]]}})
        out = tmp_path / name
        assert cli.main(["poincare", "--config", cfg, "--out", str(out)]) == 0
        names[name] = sorted(p.name for p in out.iterdir())
    assert names["shifted"] == names["equal"]
    assert "spectral.csv" not in names["equal"]


def test_poincare_scan_and_spectral_table(runs):
    tmp_path = runs["poincare"]
    scan = read_json(tmp_path / "scan.json")
    locs = [row["location"] for row in scan["lines"]]
    assert any(abs(l) < 1e-6 for l in locs)
    assert any(abs(l - 1.0) < 0.02 for l in locs)
    assert all(sorted(row) == ["alpha", "coefficient_im", "coefficient_re", "exponent",
                               "line_distance", "location", "nearest_line", "residual"]
               for row in scan["lines"])
    values = (tmp_path / "poincare_values.csv").read_text().splitlines()
    assert values[0] == "s_re,s_im,value_re,value_im"
    spectral = (tmp_path / "spectral.csv").read_text().strip().splitlines()
    assert spectral[0] == "s_re,s_im,series_re,series_im,spectral_re,spectral_im,rel_diff"
    assert len(spectral) == 3  # header plus the two real-axis points
    for row in spectral[1:]:
        assert float(row.split(",")[-1]) < 1e-6


def test_guinand_agreement(tmp_path, monkeypatch):
    # the reverse spectrum is the forward one reflected, so one enumeration serves
    calls = []
    enumerate_ = spectrum.enumerate

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(spectrum, "enumerate", counted)
    cfg = write_config(tmp_path / "c.json", {
        "dim": 3,
        "bodies": {"p": {"kind": "point"},
                   "q": {"kind": "point", "x": [0.9, 0.4, -1.1]}},
        "twist": {"beta0": [math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0),
                            math.sqrt(5.0) - 2.0]},
        "ranges": {"T": 60.0},
    })
    assert cli.main(["guinand", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    rep = read_json(tmp_path / "guinand.json")
    assert sorted(rep) == ["abs_diff", "length_side_im", "length_side_re", "lines", "rel_diff",
                           "spectral_side_im", "spectral_side_re", "truncation_mass", "window"]
    assert sorted(rep["window"]) == ["center", "width"]
    assert rep["rel_diff"] < 1e-3
    assert rep["truncation_mass"] < 1e-12
    echo = read_json(tmp_path / "config.resolved.json")
    assert echo["config"]["window"]["center"] > 0


def test_guinand_default_center_in_d5_reads_a_small_lattice_box(tmp_path, monkeypatch):
    # the first positive line lies within sqrt(d)/2 + 1 of beta0, so no box
    # is wider than the one the comb needs, |m - beta0| <= center + 12 width
    beta0 = np.array([math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0), math.sqrt(5.0) - 2.0,
                      math.sqrt(7.0) - 2.5, math.pi - 3.0])
    reach = math.ceil(math.sqrt(5.0) / 2.0 + 1.0 + 12.0 * 0.2 + np.linalg.norm(beta0))
    lattice_box = spectrum._lattice_box

    def bounded(dim, radius):
        # refuse before allocating: a radius-11 box in d = 5 holds 6.4M points
        assert radius <= reach, f"lattice box of radius {radius} > {reach}"
        return lattice_box(dim, radius)

    monkeypatch.setattr(spectrum, "_lattice_box", bounded)
    cfg = write_config(tmp_path / "c.json", {
        "dim": 5,
        "bodies": {"p": {"kind": "point"},
                   "q": {"kind": "point", "x": [0.9, 0.4, -1.1, 0.3, -0.6]}},
        "twist": {"beta0": beta0.tolist()},
        "ranges": {"T": 40.0},
    })
    assert cli.main(["guinand", "--config", cfg, "--out", str(tmp_path)]) == 0
    center = read_json(tmp_path / "config.resolved.json")["config"]["window"]["center"]
    m = np.array(np.meshgrid(*[np.arange(-2, 3)] * 5)).reshape(5, -1).T
    dist = np.linalg.norm(m - beta0, axis=1)
    assert center == pytest.approx(dist[dist > 1e-9].min(), abs=1e-12)
    assert read_json(tmp_path / "guinand.json")["rel_diff"] < 1e-9


def test_correlate_and_norms(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {},
        "twist": {"beta0": [0.15, -0.35]},
        "observables": {
            "phi": {"modes": {"1,0": 1.0, "0,1": [0.0, 0.5]}},
            "psi": {"modes": {"-1,0": 1.0, "0,-1": [0.0, -0.5]}},
        },
        "aniso": {"s0": 1, "s1": 1, "N0": 1.0, "N1": 2.0},
        "ranges": {"t_grid": np.geomspace(50.0, 200.0, 4).tolist()},
    })
    assert cli.main(["correlate", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "correlate.csv").read_text().strip().splitlines()
    assert rows[0] == "t,value_re,value_im,expansion_re,expansion_im,residual"
    assert len(rows) == 5
    norms = read_json(tmp_path / "norms.json")
    assert norms["norms"]["phi"] > 0
    assert norms["params"] == {"s0": 1, "s1": 1, "N0": 1.0, "N1": 2.0, "gamma": [0.0, 0.0]}


def test_equidist_error_decays(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"E": {"kind": "ellipsoid", "semiaxes": [1.3, 0.7]}},
        "observables": {
            "f": {"modes": {"0,0": 2.0, "1,0": 0.5, "-1,0": 0.5}, "real": True},
        },
        "ranges": {"t_grid": [10.0, 160.0]},
    })
    assert cli.main(["equidist", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "equidist.csv").read_text().strip().splitlines()
    first, last = rows[1].split(","), rows[-1].split(",")
    assert float(last[-1]) < float(first[-1])
    # each mode integral is at most the mass 2 pi t + perimeter <= 2 pi (t + 1.3),
    # so the doubling check held every change below 1e-9 of that at t = 160
    err = read_json(tmp_path / "equidist.json")["doubling_error_max"]
    assert math.isfinite(err) and 0.0 <= err <= 1e-9 * 2.0 * math.pi * (160.0 + 1.3) + 1e-12


def test_oscint_report(runs):
    tmp_path = runs["oscint"]
    rep = read_json(tmp_path / "oscint.json")
    assert rep["cap_exponent"] <= -3.0
    assert rep["remainder_order"] == -2.0
    rows = (tmp_path / "oscint.csv").read_text().strip().splitlines()
    assert rows[0] == "t,value_re,value_im,stationary_re,stationary_im,scaled_residual"
    # the two-pole term is exact for F = 1 in dimension 3: noise only
    scaled = [float(r.split(",")[-1]) for r in rows[1:]]
    assert max(scaled) < 1e-6
    # the largest order-doubling change on the t grid is within the check's tolerance
    values = [abs(complex(float(r.split(",")[1]), float(r.split(",")[2]))) for r in rows[1:]]
    err = rep["doubling_error_max"]
    assert math.isfinite(err) and 0.0 <= err <= 1e-9 * max(values) + 1e-12


def test_every_csv_is_numeric_with_one_line_terminator(runs):
    tables = sorted(p for out in runs.values() for p in out.glob("*.csv"))
    assert [p.name for p in tables] == [
        "oscint.csv", "poincare_values.csv", "spectral.csv", "counting.csv",
        "spectrum.csv"]
    for path in tables:
        data = path.read_bytes()
        assert data.endswith(b"\r\n")
        assert data.count(b"\n") == data.count(b"\r\n"), path.name
        with open(path, newline="", encoding="utf-8") as fh:
            header, *body = list(csv.reader(fh))
        assert body and all(len(row) == len(header) for row in body)
        for row in body:
            for cell in row:
                assert repr(float(cell)) == cell or str(int(cell)) == cell, (
                    path.name, cell)


@pytest.fixture(scope="module")
def zeta_run(tmp_path_factory):
    """A zeta run with residues, and the model the library builds for it."""
    out = tmp_path_factory.mktemp("zeta")
    cfg = write_config(out / "c.json", {
        "dim": 2,
        "bodies": {"B": {"kind": "ball", "radius": 0.3}, "p": {"kind": "point"}},
        "pair": ["B", "p"],
        "ranges": {"T": 40.0, "sweep": [1.0, 2.0],
                   "zeta_s_grid": [[0.5, 1.0], [3.5, 0.0]]},
    })
    assert cli.main(["zeta", "--config", cfg, "--out", str(out),
                     "--report-residues"]) == 0
    k1, k2 = cli._pair_bodies(*cli.load_config(cfg))
    return out, zetafns.build_zeta_model(spectrum.enumerate(k1, k2, T=40.0 * 2.0), 40.0)


def test_zeta_values_csv_holds_repr_cells(zeta_run):
    out, model = zeta_run
    with open(out / "zeta_values.csv", newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    assert header == ["s_re", "s_im", "value_re", "value_im"]
    want = []
    for s in (0.5 + 1.0j, 3.5 + 0.0j):
        v = zetafns.zeta_continue(model, s)
        want.append([repr(s.real), repr(s.imag), repr(v.real), repr(v.imag)])
    assert body == want


def test_residues_json_round_trip(zeta_run):
    out, model = zeta_run
    want = [{"pole": est.pole, "residue_re": est.residue.real,
             "residue_im": est.residue.imag, "err": est.error,
             "predicted_from_volumes": est.predicted_from_volumes,
             "bound": est.bound, "certified": est.certified}
            for est in zetafns.residues(model)]
    text = (out / "residues.json").read_text()
    assert json.loads(text) == want
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert [row["pole"] for row in want] == [1, 2]
    assert want[1]["residue_re"] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    # a spectrum to 80 leaves sigma near 3: err is within a bound above 5 % of the residue
    assert all(row["err"] <= row["bound"] and not row["certified"] for row in want)


def test_series_csv_holds_repr_cells(tmp_path):
    modes = {"phi": {"1,0": 1.0, "0,1": [0.0, 0.5]},
             "psi": {"-1,0": 1.0, "0,-1": [0.0, -0.5]}}
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "twist": {"beta0": [0.15, -0.35]},
        "observables": {k: {"modes": v} for k, v in modes.items()},
        "ranges": {"t_grid": [2.0, 60.0]},
    })
    assert cli.main(["correlate", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "correlate.csv", newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    assert header == ["t", "value_re", "value_im", "expansion_re",
                      "expansion_im", "residual"]
    phi, psi = (dynamics.TorusObservable(
        2, {cli._parse_freq(k): cli._parse_coeff(c) for k, c in m.items()})
        for m in modes.values())
    want = []
    for t in (2.0, 60.0):
        v = dynamics.correlation(phi, psi, np.array([0.15, -0.35]), t)
        e = dynamics.correlation_expansion(phi, psi, np.array([0.15, -0.35]), t)
        want.append([repr(t), repr(v.real), repr(v.imag), repr(e.real),
                     repr(e.imag), repr(abs(v - e))])
    assert body == want


_CORRELATED = {"dim": 2, "observables": {"phi": {"modes": {"1,0": 1.0}},
                                         "psi": {"modes": {"-1,0": 1.0}}}}
_POINTS_D3 = {"dim": 3, "bodies": {"a": {"kind": "point"},
                                   "b": {"kind": "point", "x": [0.9, 0.4, -1.1]}}}

_BAD_CONFIGS = {
    "point-x-length": ("spectrum", {"dim": 2, "bodies": {
        "p": {"kind": "point"}, "q": {"kind": "point", "x": [0.5, 0.1, 0.2]}}}),
    "ball-center-length": ("spectrum", {"dim": 2, "bodies": {
        "p": {"kind": "point"},
        "b": {"kind": "ball", "center": [0.5, 0.1, 0.2], "radius": 0.3}}}),
    "ball-radius": ("volumes", {"dim": 2, "bodies": {
        "b": {"kind": "ball", "radius": -0.3}}}),
    "rotation-shape": ("volumes", {"dim": 2, "bodies": {
        "e": {"kind": "ellipsoid", "semiaxes": [1.0, 0.5],
              "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}}),
    "rotation-not-orthogonal": ("volumes", {"dim": 2, "bodies": {
        "e": {"kind": "ellipsoid", "semiaxes": [1.0, 0.5],
              "rotation": [[1.0, 1.0], [0.0, 1.0]]}}}),
    "odd-harmonic-degree": ("volumes", {"dim": 2, "bodies": {
        "h": {"kind": "harmonic", "base": {"kind": "ball", "radius": 1.0},
              "terms": [[3, [1.0, 0.0], 0.02]]}}}),
    "T-below-T0": ("spectrum", {"dim": 2, "bodies": {
        "p": {"kind": "point"}, "q": {"kind": "point"}},
        "ranges": {"T0": 10.0, "T": 5.0}}),
    # oscint checks these before it writes oscint.csv
    "oscint-xi-length": ("oscint", {"dim": 2, "oscint": {"xi": [1.0]},
                                    "ranges": {"t_grid": [50.0, 60.0]}}),
    "oscint-one-t": ("oscint", {"dim": 2, "ranges": {"t_grid": [50.0]}}),
    "oscint-t-zero": ("oscint", {"dim": 2, "ranges": {"t_grid": [0.0, 60.0]}}),
    # beta0 on the default xi = e1 leaves the phase without stationary points
    "oscint-xi-at-beta0": ("oscint", {"dim": 2, "twist": {"beta0": [1.0, 0.0]}}),
    "equidist-without-bodies": ("equidist", {"dim": 2, "observables": {
        "f": {"modes": {"0,0": 1.0}}}}),
    # T0 beyond the default T: 50 for spectrum, 20 pi for the d = 3 zeta model
    "T0-beyond-default-T-spectrum": ("spectrum", {"dim": 2, "bodies": {
        "p": {"kind": "point"}, "q": {"kind": "point", "x": [0.5, 0.1]}},
        "ranges": {"T0": 60.0}}),
    **{f"T0-beyond-default-T-{command}": (command, {"dim": 3, "bodies": {
        "p": {"kind": "point", "x": [0.0, 0.0, 0.0]},
        "q": {"kind": "point", "x": [0.5, 0.1, 0.2]}},
        "ranges": {"T0": 70.0, "sweep": [1.0]}}) for command in ("zeta", "poincare")},
    **{f"ball-radius-nan-{command}": (command, {"dim": 2, "bodies": {
        "a": {"kind": "ball", "radius": math.nan}, "b": {"kind": "point"}}})
       for command in ("volumes", "spectrum")},
    # T0 left to its default 2 (r_hi(a) + r_hi(b)) + 1 = 27
    "default-T0-beyond-T": ("spectrum", {"dim": 2, "bodies": {
        "a": {"kind": "ball", "radius": 13.0}, "b": {"kind": "point"}},
        "ranges": {"T": 20.0}}),
    # twists and s grids that the library would refuse or turn into nan rows
    **{f"twist-{name}": ("spectrum", {"dim": 2, "bodies": {
        "a": {"kind": "point"}, "b": {"kind": "point", "x": [0.9, 0.4]}},
        "twist": twist, "ranges": {"T": 30.0}}) for name, twist in (
            ("beta0-nan", {"beta0": [math.nan, 0.0]}),
            ("mode-nan", {"modes": {"1,0": [math.nan, 0.0], "-1,0": [math.nan, 0.0]}}),
            ("modes-not-hermitian", {"modes": {"1,0": [0.2, 0.1], "-1,0": [0.2, 0.1]}}))},
    **{f"{key}-nan": (command, {"dim": 2, "bodies": {
        "a": {"kind": "point"}, "b": {"kind": "point", "x": [0.9, 0.4]}},
        "ranges": {"T": 30.0, "sweep": [1.0], key: [[math.nan, 0.0], [0.5, 0.0]]}})
       for command, key in (("zeta", "zeta_s_grid"), ("poincare", "poincare_s_grid"))},
    # pairs the Guinand pairing cannot take, refused before enumerating
    "guinand-d2-pair": ("guinand", _POINT_PAIR),
    "guinand-ball": ("guinand", {"dim": 3, "bodies": {
        "a": {"kind": "ball", "radius": 0.2}, "b": {"kind": "point", "x": [0.9, 0.4, -1.1]}}}),
    "guinand-d7-pair": ("guinand", {"dim": 7, "bodies": {
        "a": {"kind": "point"}, "b": {"kind": "point", "x": [0.9, 0.4, -1.1, 0.3, 0.2, 0.1, 0.5]}},
        "ranges": {"T": 8.0}}),
    # entries of the wrong shape and values the library refuses
    "zeta_s_grid-short-entry": ("zeta", {**_POINT_PAIR, "ranges": {
        "T": 30.0, "sweep": [1.0], "zeta_s_grid": [[0.5]]}}),
    "twist-mode-three-parts": ("spectrum", {**_POINT_PAIR, "twist": {"modes": {
        "1,0": [0.1, 0.0, 3.0], "-1,0": [0.1, 0.0, 3.0]}}, "ranges": {"T": 30.0}}),
    "harmonic-term-short": ("volumes", {"dim": 2, "bodies": {
        "h": {"kind": "harmonic", "base": {"kind": "ball", "radius": 1.0},
              "terms": [[2]]}}}),
    "t_grid-without-start": ("equidist", {"dim": 2, "bodies": {
        "b": {"kind": "ball", "radius": 0.5}}, "observables": {
        "f": {"modes": {"1,0": 1.0}}}, "ranges": {"t_grid": {"stop": 20.0}}}),
    **{f"sweep-{name}": ("zeta", {**_POINT_PAIR, "ranges": {"T": 30.0, "sweep": sweep}})
       for name, sweep in (("empty", []), ("below-1", [0.5, 1.0]))},
    "window-width-negative": ("guinand", {**_POINT_PAIR, "ranges": {"T": 30.0},
                                          "window": {"width": -1.0}}),
    # the pairing needs spectra from T0 = 0; any other start was silently replaced
    "guinand-T0-nonzero": ("guinand", {**_POINT_PAIR, "ranges": {"T0": 5.0, "T": 30.0}}),
    "T-nan": ("spectrum", {**_POINT_PAIR, "ranges": {"T": math.nan}}),
    # a string window was compared with 0 and raised TypeError (exit 1), or was parsed
    "T0-string": ("spectrum", {**_POINT_PAIR, "ranges": {"T0": "5", "T": 30.0}}),
    "T-string": ("spectrum", {**_POINT_PAIR, "ranges": {"T": "30"}}),
    # refused only after zeta_values.csv was written
    "residues-under-twist": ("zeta --report-residues", {
        **_POINT_PAIR, "twist": {"modes": {"1,0": [0.2, 0.1], "-1,0": [0.2, -0.1]}},
        "ranges": {"T": 100.0, "sweep": [1.0]}}),
    # t grids the library refused with exit 1
    **{f"correlate-t_grid-{name}": ("correlate", {**_CORRELATED, "ranges": {"t_grid": ts}})
       for name, ts in (("nan", [math.nan, 60.0]), ("negative", [-5.0, 60.0]))},
    "equidist-t_grid-negative": ("equidist", {"dim": 2, "bodies": {
        "b": {"kind": "ball", "radius": 0.5}}, "observables": {
        "f": {"modes": {"1,0": 1.0}}}, "ranges": {"t_grid": [-5.0, 60.0]}}),
    # scan grids singularity_scan refused after poincare_values.csv was written
    **{f"{key}-{name}": ("poincare", {**_POINT_PAIR, "ranges": {
        "T": 200.0, "sweep": [1.0], key: grid}}) for key, name, grid in (
            ("eps_ladder", "above-0.5", [0.9, 0.1]),
            ("eps_ladder", "nan", [math.nan, 0.1]),
            # one value leaves the slope fit a line through one point
            ("eps_ladder", "one-value", [0.1]),
            ("eps_ladder", "repeated", [0.1, 0.1]),
            # the lines were predicted up to 0 and every peak was matched to 1.0
            ("y_grid", "decreasing", {"start": 3.2, "stop": 0.0, "num": 641}),
            ("y_grid", "nan", [0.0, math.nan, 1.0]),
            ("y_grid", "empty", {"start": 0.0, "stop": 1.0, "num": 0}))},
    # aniso sections refused after correlate.csv was written
    **{f"aniso-{name}": ("correlate", {**_CORRELATED, "ranges": {"t_grid": [50.0, 60.0]},
                                       "aniso": {"s0": 1, "s1": 1, "N0": 1.0, "N1": 2.0,
                                                 **given}})
       for name, given in (("s0-negative", {"s0": -1}),
                           ("width-2", {"width": 2.0}),  # the cutoff width is no key
                           ("gamma-length", {"gamma": [0.0, 0.0, 0.0]}),
                           # read through int() and float() as order 1, 2.0 and (1.0, 0.0)
                           ("s0-fraction", {"s0": 1.5}), ("s1-fraction", {"s1": 1.5}),
                           ("s1-bool", {"s1": True}), ("s0-string", {"s0": "1"}),
                           ("N0-string", {"N0": "2"}), ("N1-string", {"N1": "2"}),
                           ("gamma-string", {"gamma": ["1", 0]}),
                           ("gamma-bool", {"gamma": [True, 0]}),
                           # NaN norms, or exit 1 after correlate.csv was written
                           ("N0-nan", {"N0": math.nan}), ("gamma-inf", {"gamma": [math.inf, 0]}))},
    # grids read as something else: 641 points echoed as 641.7, one t, and strings
    # through float(); every {start, stop, num} grid is np.linspace, so spacing is no key
    "y_grid-num-fraction": ("poincare", {**_POINT_PAIR, "ranges": {
        "T": 200.0, "sweep": [1.0], "y_grid": {"start": 0.0, "stop": 3.2, "num": 641.7}}}),
    "y_grid-start-string": ("poincare", {**_POINT_PAIR, "ranges": {
        "T": 200.0, "sweep": [1.0], "y_grid": {"start": "0", "stop": 3.2, "num": 641}}}),
    **{f"t_grid-{name}": ("correlate", {**_CORRELATED, "ranges": {"t_grid": ts}})
       for name, ts in (("num-bool", {"start": 50.0, "stop": 60.0, "num": True}),
                        ("spacing-unknown", {"start": 50.0, "stop": 60.0, "num": 4,
                                             "spacing": "log"}),
                        ("strings", ["50", "100"]),
                        # a misspelt num ran the default 20 points
                        ("unknown-key", {"start": 50.0, "stop": 60.0, "nmu": 3}))},
    **{f"zeta_s_grid-{name}": ("zeta", {**_POINT_PAIR, "ranges": {
        "T": 30.0, "sweep": [1.0], "zeta_s_grid": grid}})
       for name, grid in (("strings", [["4.0", "0.0"]]), ("three-entries", [[4.0, 0.0, 1.0]]))},
    # poincare_eval refuses Re(s) below its floor, which exited 1
    "poincare_s_grid-below-floor": ("poincare", {**_POINT_PAIR, "ranges": {
        "T": 200.0, "sweep": [1.0], "poincare_s_grid": [[0.0, 1.0]]}}),
    # built as degree 4, the same body as [4, ...]
    "harmonic-degree-fraction": ("volumes", {"dim": 2, "bodies": {
        "h": {"kind": "harmonic", "base": {"kind": "ball", "radius": 1.0},
              "terms": [[4.7, [1.0, 0.0], 0.01]]}}}),
    "harmonic-degree-string": ("volumes", {"dim": 2, "bodies": {
        "h": {"kind": "harmonic", "base": {"kind": "ball", "radius": 1.0},
              "terms": [["4", [1.0, 0.0], 0.01]]}}}),
    # run as a real observable: "false" is a true string
    **{f"real-{name}": ("correlate", {"dim": 2, "observables": {
        "phi": {"modes": {"1,0": 1.0, "-1,0": 1.0}, "real": real},
        "psi": {"modes": {"-1,0": 1.0}}}, "ranges": {"t_grid": [50.0, 60.0]}})
       for name, real in (("string", "false"), ("number", 1))},
    # misspelt keys, read as absent: gamma 0, a centred ball, a complex observable
    "ball-centre": ("volumes", {"dim": 2, "bodies": {
        "b": {"kind": "ball", "centre": [0.3, 0.1], "radius": 0.5}}}),
    "ellipsoid-rotaton": ("volumes", {"dim": 2, "bodies": {
        "e": {"kind": "ellipsoid", "semiaxes": [1.0, 0.5], "rotaton": [[0, 1], [1, 0]]}}}),
    "aniso-gama": ("correlate", {**_CORRELATED, "ranges": {"t_grid": [50.0, 60.0]},
                                 "aniso": {"s0": 1, "s1": 1, "N0": 1.0, "N1": 2.0,
                                           "gama": [1, 0]}}),
    "observable-reel": ("correlate", {"dim": 2, "observables": {
        "phi": {"modes": {"1,0": 1.0, "-1,0": 1.0}, "reel": True},
        "psi": {"modes": {"-1,0": 1.0}}}, "ranges": {"t_grid": [50.0, 60.0]}}),
    # strings and bools read as numbers
    "ball-radius-bool": ("volumes", {"dim": 2, "bodies": {
        "b": {"kind": "ball", "radius": True}}}),
    "ball-center-strings": ("volumes", {"dim": 2, "bodies": {
        "b": {"kind": "ball", "center": ["0.3", "0.1"], "radius": 0.5}}}),
    "ball-center-bool-among-numbers": ("volumes", {"dim": 2, "bodies": {
        "b": {"kind": "ball", "center": [True, 0.1], "radius": 0.5}}}),
    # a body the subcommand never builds was checked by its keys alone
    "unused-body-wrong-dimension": ("spectrum", {**_POINT_PAIR, "pair": ["a", "b"], "bodies": {
        **_POINT_PAIR["bodies"], "c": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.2}}}),
    "twist-beta0-strings": ("spectrum", {**_POINT_PAIR, "twist": {"beta0": ["0.25", "0"]},
                                         "ranges": {"T": 30.0}}),
    "twist-mode-string": ("spectrum", {**_POINT_PAIR, "twist": {"modes": {
        "1,0": "0.1", "-1,0": "0.1"}}, "ranges": {"T": 30.0}}),
    "sweep-strings": ("zeta", {**_POINT_PAIR, "ranges": {"T": 30.0, "sweep": ["1"]}}),
    "oscint-xi-strings": ("oscint", {"dim": 2, "oscint": {"xi": ["1", "0"]},
                                     "ranges": {"t_grid": [50.0, 60.0]}}),
    # a 4th entry was ignored; a zero axis normalised to NaN and passed the certificate
    "harmonic-term-long": ("volumes", {"dim": 2, "bodies": {
        "h": {"kind": "harmonic", "base": {"kind": "ball", "radius": 1.0},
              "terms": [[2, [1.0, 0.0], 0.01, 5.0]]}}}),
    **{f"harmonic-axis-zero-{command}": (command, {"dim": 2, "bodies": {
        "h": {"kind": "harmonic", "base": {"kind": "ball", "radius": 1.0},
              "terms": [[2, [0.0, 0.0], 0.01]]}, "p": {"kind": "point"}}})
       for command in ("volumes", "spectrum")},
    # a list kind and a number of semiaxes raised TypeError
    "body-kind-list": ("volumes", {"dim": 2, "bodies": {"b": {"kind": ["ball"], "radius": 0.5}}}),
    "ellipsoid-semiaxes-number": ("volumes", {"dim": 2, "bodies": {
        "e": {"kind": "ellipsoid", "semiaxes": 1.0}}}),
    # body names that are lists raised TypeError
    "pair-list-entry": ("spectrum", {**_POINT_PAIR, "pair": [["a"], "b"]}),
    "equidist-body-list": ("equidist", {"dim": 2, "bodies": {
        "b": {"kind": "ball", "radius": 0.5}}, "body": ["b"], "observables": {
        "f": {"modes": {"0,0": 1.0}}}}),
    # maps that are not objects raised AttributeError
    "observables-list": ("correlate", {"dim": 2, "observables": []}),
    "observable-modes-list": ("correlate", {"dim": 2, "observables": {
        "phi": {"modes": ["1,0"]}, "psi": {"modes": {"-1,0": 1.0}}}}),
    # windows that are not finite numbers raised TypeError, ValueError or OverflowError
    **{f"window-{name}": ("guinand", {**_POINTS_D3, "ranges": {"T": 60.0}, "window": window})
       for name, window in (("center-string", {"center": "1.0"}),
                            ("center-list", {"center": [1.0]}),
                            ("center-nan", {"center": math.nan}),
                            ("center-inf", {"center": math.inf}),
                            ("width-inf", {"width": math.inf}))},
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_bad_body_and_range_configs_exit_2(tmp_path, capsys, case):
    command, raw = _BAD_CONFIGS[case]
    cfg = write_config(tmp_path / "c.json", raw)
    out = tmp_path / "out"
    assert cli.main(command.split() + ["--config", cfg, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    # refused before any artifact is written
    assert not out.exists() or not any(out.iterdir())


# sections that some subcommands never read; each was refused only by those that do
_UNUSED_BAD_SECTIONS = {
    "observable-real-unpaired": {"observables": {"g": {"modes": {"1,0": 1.0}, "real": True}}},
    "observable-coefficient-string": {"observables": {"g": {"modes": {"1,0": "1.0"}}}},
    "aniso-s0-fraction": {"aniso": {"s0": 1.5, "s1": 1, "N0": 1.0, "N1": 2.0}},
    "sweep-string": {"ranges": {"sweep": ["x"]}},
    # each section below was checked only by the subcommands that read it,
    # so volumes ran every one of them with exit 0
    "twist-coefficient-string": {"twist": {"modes": {"1,0": "x", "-1,0": "x"}}},
    "twist-modes-not-hermitian": {"twist": {"modes": {"1,0": [0.2, 0.1]}}},
    "window-width-negative": {"window": {"width": -1.0}},
    "t_grid-string": {"ranges": {"t_grid": ["a"]}},
    "zeta_s_grid-string": {"ranges": {"zeta_s_grid": [["x"]]}},
    "poincare_s_grid-re-zero": {"ranges": {"poincare_s_grid": [[0.0, 1.0]]}},
    "eps_ladder-one-value": {"ranges": {"eps_ladder": [0.9]}},
    "y_grid-decreasing": {"ranges": {"y_grid": [2.0, 1.0]}},
    "oscint-xi-string": {"oscint": {"xi": "q"}},
    "oscint-xi-long": {"oscint": {"xi": [1.0, 0.0, 0.0]}},
    "body-unknown": {"body": "c"},
    # an OverflowError (exit 1) from spectrum, zeta and guinand
    "T-inf": {"ranges": {"T": math.inf}},
    "T-integer-beyond-float": {"ranges": {"T": 10**400}},
}


@pytest.mark.parametrize("case", sorted(_UNUSED_BAD_SECTIONS))
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_subcommand_refuses_every_bad_section(tmp_path, capsys, command, case):
    cfg = write_config(tmp_path / "c.json", {**_POINT_PAIR, **_UNUSED_BAD_SECTIONS[case]})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["correlate", "oscint"])
def test_subcommands_reading_beta0_alone_refuse_twist_modes(tmp_path, capsys, command):
    # the f part of beta = beta0 dx + df was dropped without a word
    cfg = write_config(tmp_path / "c.json", {
        **_CORRELATED, "twist": {"beta0": [0.5, 0.0],
                                 "modes": {"1,0": [0.2, 0.1], "-1,0": [0.2, -0.1]}},
        "ranges": {"t_grid": [50.0, 60.0]}})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {command} reads twist.beta0 alone" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["correlate", "oscint", "spectrum"])
def test_non_finite_beta0_is_a_config_error(tmp_path, capsys, command, value):
    # correlate exited 1 on a NaN, and oscint blamed oscint.xi
    cfg = write_config(tmp_path / "c.json", {
        **_POINT_PAIR, **_CORRELATED, "twist": {"beta0": [value, 0.0]},
        "ranges": {"T": 30.0, "t_grid": [50.0, 60.0]}})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error: twist.beta0:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["volumes", "spectrum", "equidist"])
def test_each_configured_body_is_built_once(tmp_path, monkeypatch, command):
    build_body, built = cli.build_body, []

    def counted(dim, spec):
        built.append(spec["kind"])
        return build_body(dim, spec)

    monkeypatch.setattr(cli, "build_body", counted)
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"B": {"kind": "ball", "radius": 0.3},
                   "E": {"kind": "ellipsoid", "semiaxes": [0.4, 0.2]},
                   "p": {"kind": "point", "x": [0.5, 0.1]}},
        "observables": {"f": {"modes": {"0,0": 1.0, "1,0": 0.5}}},
        "ranges": {"T": 10.0, "t_grid": [10.0, 20.0]}})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert sorted(built) == ["ball", "ellipsoid", "point"]


@pytest.mark.parametrize("y, T",[((0.9, 0.4), 200.0), ((0.3, 0.2), 120.0)],
                         ids=["y=(0.9,0.4),T=200", "y=(0.3,0.2),T=120"])
def test_poincare_scan_on_d2_point_pairs(tmp_path, y, T):
    # these scans stopped on FitAmbiguous while the y = 0 pole-stack order
    # -1 was offered at the lines, whose order is (1 - d)/2 = -0.5
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"a": {"kind": "point"}, "b": {"kind": "point", "x": list(y)}},
        "ranges": {"T": T, "sweep": [1.0]},
    })
    assert cli.main(["poincare", "--config", cfg, "--out", str(tmp_path)]) == 0
    fits = read_json(tmp_path / "scan.json")["lines"]
    lines = [f for f in fits if f["location"] > 0.1]
    assert len(lines) >= 2
    assert all(f["alpha"] == -0.5 for f in lines)


_MINIMAL_POINT_PAIRS = {
    2: {"dim": 2, "bodies": {"a": {"kind": "point"}, "b": {"kind": "point", "x": [0.9, 0.4]}},
        "pair": ["a", "b"]},
    3: {"dim": 3, "bodies": {"a": {"kind": "point"},
                             "b": {"kind": "point", "x": [0.9, 0.4, -1.1]}},
        "pair": ["a", "b"]},
}


@pytest.mark.parametrize("dim", sorted(_MINIMAL_POINT_PAIRS))
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_minimal_point_pairs_never_exit_1(tmp_path, capsys, command, dim):
    # with no ranges every default must hold: a run succeeds, or the config
    # lacks what the subcommand needs (observables, a pair guinand can take)
    cfg = write_config(tmp_path / "c.json", _MINIMAL_POINT_PAIRS[dim])
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code in (0, 2), capsys.readouterr().err
    if command == "poincare":
        # the default head 60 pi / d leaves a tail above 1e-6 of a value at Re s = 0.2,
        # so it is doubled
        ranges = read_json(tmp_path / "out" / "config.resolved.json")["config"]["ranges"]
        assert ranges["T"] == 120.0 * math.pi / dim


def test_guinand_default_T_holds_a_narrow_window(tmp_path):
    # at T = 50 a width of 0.1 leaves window mass 3.7e-6; the default T is the
    # least with mass <= 1e-12, 7.434 / width, to within 1e-12 relative
    cfg = write_config(tmp_path / "c.json", dict(_MINIMAL_POINT_PAIRS[3], window={"width": 0.1}))
    assert cli.main(["guinand", "--config", cfg, "--out", str(tmp_path)]) == 0
    T = read_json(tmp_path / "config.resolved.json")["config"]["ranges"]["T"]
    assert T == pytest.approx(math.sqrt(2.0 * math.log(1e12)) / 0.1, rel=2e-12)
    assert read_json(tmp_path / "guinand.json")["truncation_mass"] <= 1e-12


def test_workers_below_1_exit_2_before_the_output_directory(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"dim": 2, "bodies": {
        "b": {"kind": "ball", "radius": 0.5}}})
    out = tmp_path / "out"
    assert cli.main(["volumes", "--config", cfg, "--out", str(out), "--workers", "0"]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


_REFUSED_CONFIGS = {
    "top-level-list": ("volumes", [], "top-level must be an object"),
    "ranges-number": ("volumes", {**_POINT_PAIR, "ranges": 5}, "ranges must be an object"),
    "window-list": ("volumes", {**_POINT_PAIR, "window": []}, "window must be an object"),
    **{f"{command}-without-pair": (command, {"dim": 3, "bodies": {"a": {"kind": "point"}}},
                                   "this subcommand needs a body pair")
       for command in ("spectrum", "zeta", "poincare", "guinand")},
    "volumes-without-bodies": ("volumes", {"dim": 2}, "volumes needs at least one body"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_CONFIGS))
def test_config_refusals_name_their_reason(tmp_path, capsys, case):
    command, raw, message = _REFUSED_CONFIGS[case]
    cfg = write_config(tmp_path / "c.json", raw)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_poincare_keeps_a_configured_head_whose_tail_dominates(tmp_path, capsys, monkeypatch):
    # only the default head is doubled; the head 60 pi / 3 of the d = 3 pair, when
    # the config sets it, leaves a tail above 1e-6 of a value and the run stops
    zeta_model, heads = cli._zeta_model, []

    def counted(cfg, *args):
        heads.append(cfg["ranges"]["T"])
        return zeta_model(cfg, *args)

    monkeypatch.setattr(cli, "_zeta_model", counted)
    T = 60.0 * math.pi / 3
    cfg = write_config(tmp_path / "c.json", dict(_MINIMAL_POINT_PAIRS[3], ranges={"T": T}))
    assert cli.main(["poincare", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "orthospec: TailDominates: tail estimate" in capsys.readouterr().err
    assert heads == [T]


def test_bad_config_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["volumes", "--config", missing, "--out", str(tmp_path)]) == 2
    bad = write_config(tmp_path / "bad.json", {"dim": 2, "nonsense": 1})
    assert cli.main(["volumes", "--config", bad, "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_module_error_exit_code(tmp_path, capsys):
    # the continuation refuses s on its pole at s = d: propagated as exit 1
    # (a pair guinand cannot take is a config error, refused before it enumerates)
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"E": {"kind": "ellipsoid", "semiaxes": [1.3, 0.7]},
                   "p": {"kind": "point"}},
        "ranges": {"T": 20.0, "sweep": [1.0], "zeta_s_grid": [[2.0, 0.0]]},
    })
    assert cli.main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "orthospec: PoleHit:" in err


def test_config_schema_validation(tmp_path, capsys):
    cases = [
        {"dim": 1},
        {"dim": 2, "bodies": {"b": {"kind": "blob"}}},
        {"dim": 2, "bodies": {"b": {"kind": "ball"}}},
        {"dim": 2, "twist": {"beta0": [0.1]}},
        {"dim": 2, "observables": {"phi": {"modes": {"1": 1.0}}}},
    ]
    # keys that nothing reads are unknown keys, on a config that is otherwise valid
    ball = {"dim": 2, "bodies": {"b": {"kind": "ball", "radius": 0.5}}}
    cfg = write_config(tmp_path / "c.json", ball)
    assert cli.main(["volumes", "--config", cfg, "--out", str(tmp_path)]) == 0
    cases += [dict(ball, seed=0), dict(ball, tolerances={}), dict(ball, orient="+-")]
    for raw in cases:
        cfg = write_config(tmp_path / "c.json", raw)
        assert cli.main(["volumes", "--config", cfg, "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_orientations_the_library_rejects_are_config_errors(tmp_path, capsys):
    # the pair order is the orientation: every value of "orient" is an unknown key
    pair = {"dim": 2, "bodies": {"p": {"kind": "point"}, "q": {"kind": "ball", "radius": 0.1}},
            "ranges": {"T": 10.0}}
    cfg = write_config(tmp_path / "c.json", pair)
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for orient in ("+-", "-+", "++", "--"):
        cfg = write_config(tmp_path / "c.json", dict(pair, orient=orient))
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "unknown top-level key 'orient'" in err


_NO_SCIPY_STEPS = """
import sys

def report(step):
    # scipy and its subpackages, to two name levels
    loaded = sorted({".".join(m.split(".")[:2]) for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")})
    print(step, ",".join(loaded) or "-")

import orthospec.cli
report("import")
from orthospec import convex, spectrum, spherequad, zetafns
m = zetafns.build_zeta_model(spectrum.enumerate(convex.point((0.0, 0.0, 0.0)),
                                                convex.point((0.9, 0.4, -1.1)), T=60.0), 60.0)
assert len(zetafns.singularity_scan(m)) > 1
report("singularity_scan")
zetafns.poincare_points_spectral((0.0, 0.0), (0.9, 0.4), spectrum.TwistForm((0.0, 0.0)), 0.5)
report("ewald_d2")
zetafns.poincare_points_spectral((0.0, 0.0, 0.0), (0.9, 0.4, -1.1), m.spec.beta, 0.5)
report("ewald_d3")
convex.steiner(convex.harmonic(convex.ball((0.0, 0.0), 1.0), [(4, (1.0, 0.0), 0.02)]))
report("steiner_d2")
convex.steiner(convex.harmonic(convex.ellipsoid((0.0, 0.0, 0.0), (1.0, 0.8, 0.7)),
                               [(4, (0.0, 0.0, 1.0), 0.01), (6, (1.0, 0.0, 0.0), 0.005)]))
report("steiner_d3")
spherequad.grid(4, 30)
spherequad.grid(5, 12)
report("grid")
"""


def test_subcommands_never_load_scipy():
    # scipy.special alone was more than half of the import time of every
    # subcommand; the package computes its Gauss rules and special
    # functions itself, so no step of any pipeline may load scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_STEPS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    steps = [line.split() for line in out.stdout.splitlines()]
    assert [step for step, _ in steps] == [
        "import", "singularity_scan", "ewald_d2", "ewald_d3", "steiner_d2",
        "steiner_d3", "grid"]
    assert all(loaded == "-" for _, loaded in steps), out.stdout


_LOADED_MODULES = """
import sys
from orthospec import cli

code = cli.main(sys.argv[1:])
print(code, ",".join(sorted(m for m in sys.modules if m.startswith("orthospec."))),
      "concurrent.futures" in sys.modules)
"""

_SCOPED_RUNS = {
    "oscint": {"dim": 3, "ranges": {"t_grid": [40.0, 80.0]}},
    "correlate": {
        "dim": 3,
        "observables": {"phi": {"modes": {"1,0,0": 1.0}},
                        "psi": {"modes": {"-1,0,0": 1.0}}},
        "ranges": {"t_grid": [40.0, 80.0]},
    },
    "equidist": {
        "dim": 2,
        "bodies": {"B": {"kind": "ball", "radius": 0.5}},
        "observables": {"f": {"modes": {"0,0": 1.0, "1,0": 0.5}}},
        "ranges": {"t_grid": [10.0, 20.0]},
    },
    "volumes": {"dim": 2, "bodies": {"B": {"kind": "ball", "radius": 0.5}}},
    "spectrum": {**_POINT_PAIR, "ranges": {"T": 20.0}},
}


@pytest.mark.parametrize("command", sorted(_SCOPED_RUNS))
def test_subcommands_import_only_the_modules_they_run(command, tmp_path):
    # every fresh process pays for what it imports before its first
    # integral, so an oscillatory subcommand loads no enumeration or zeta
    # code, volumes no dynamics, and a run on one worker no thread pool
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cfg = write_config(tmp_path / "c.json", _SCOPED_RUNS[command])
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, command, "--config", cfg,
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    code, loaded, pool = out.stdout.split()
    assert code == "0", out.stderr
    assert pool == "False"
    loaded = {m.removeprefix("orthospec.") for m in loaded.split(",")}
    if command == "oscint":
        assert loaded == {"cli", "_tables", "spherequad"}
    elif command == "correlate":
        assert loaded == {"cli", "_tables", "spherequad", "dynamics"}
    elif command == "volumes":
        assert not loaded & {"spectrum", "zetafns", "dynamics"}, loaded
    elif command == "spectrum":
        assert not loaded & {"zetafns", "dynamics"}, loaded
    else:
        assert not loaded & {"spectrum", "zetafns"}, loaded


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "orthospec" in capsys.readouterr().out


def test_harmonic_body_config(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"H": {"kind": "harmonic",
                         "base": {"kind": "ball", "radius": 1.0},
                         "terms": [[4, [1.0, 0.0], 0.02]]}},
    })
    assert cli.main(["volumes", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "volumes.json")["H"]
    assert rep["volume"] == pytest.approx(math.pi, rel=0.01)
