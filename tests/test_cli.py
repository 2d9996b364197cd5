import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthospec import cli


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


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


def test_spectrum_artifacts_and_multiplicity(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"p": {"kind": "point"}, "q": {"kind": "point"}},
        "pair": ["p", "q"],
        "ranges": {"T": 20.0},
    })
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    lengths = [float(r.split(",")[4]) for r in rows[1:]]
    hits = sum(1 for l in lengths if abs(l - 2.0 * math.pi) < 1e-9)
    assert hits == 4
    counting = (tmp_path / "counting.csv").read_text().strip().splitlines()
    assert counting[0] == "T,count,model,weighted_re,weighted_im"
    meta = read_json(tmp_path / "spectrum.meta.json")
    assert meta["count"] == len(lengths)


def test_worker_determinism_bytes(tmp_path, monkeypatch):
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
    monkeypatch.setenv("ORTHOSPEC_WORKERS", "2")
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


def test_zeta_twist_report(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"p": {"kind": "point"}, "q": {"kind": "point"}},
        "twist": {"beta0": [math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0)]},
        "ranges": {"T": 100.0, "sweep": [1.0]},
    })
    assert cli.main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "twist.json")
    assert rep["mode"] == "decay"
    assert rep["certified"] is True
    assert len(rep["ratios"]) == 3


def test_poincare_scan_and_spectral_table(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 3,
        "bodies": {"p": {"kind": "point"},
                   "q": {"kind": "point", "x": [0.9, 0.4, -1.1]}},
        "pair": ["p", "q"],
        "ranges": {"T": 150.0, "sweep": [1.0],
                   "poincare_s_grid": [[0.3, 0.0], [0.8, 1.1], [2.0, 0.0]]},
    })
    assert cli.main(["poincare", "--config", cfg, "--out", str(tmp_path)]) == 0
    scan = read_json(tmp_path / "scan.json")
    locs = [row["location"] for row in scan["lines"]]
    assert any(abs(l) < 1e-6 for l in locs)
    assert any(abs(l - 1.0) < 0.02 for l in locs)
    spectral = (tmp_path / "spectral.csv").read_text().strip().splitlines()
    assert len(spectral) == 3  # header plus the two real-axis points
    for row in spectral[1:]:
        assert float(row.split(",")[-1]) < 1e-6


def test_guinand_agreement(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 3,
        "bodies": {"p": {"kind": "point"},
                   "q": {"kind": "point", "x": [0.9, 0.4, -1.1]}},
        "twist": {"beta0": [math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0),
                            math.sqrt(5.0) - 2.0]},
        "ranges": {"T": 60.0},
    })
    assert cli.main(["guinand", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "guinand.json")
    assert rep["rel_diff"] < 1e-3
    assert rep["truncation_mass"] < 1e-12
    echo = read_json(tmp_path / "config.resolved.json")
    assert echo["config"]["window"]["center"] > 0


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
        "ranges": {"t_grid": {"start": 50, "stop": 200, "num": 4,
                              "spacing": "log"}},
    })
    assert cli.main(["correlate", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "correlate.csv").read_text().strip().splitlines()
    assert rows[0] == "t,value_re,value_im,expansion_re,expansion_im,residual"
    assert len(rows) == 5
    norms = read_json(tmp_path / "norms.json")
    assert norms["norms"]["phi"] > 0


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


def test_oscint_report(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "dim": 3,
        "bodies": {},
        "ranges": {"t_grid": {"start": 40, "stop": 400, "num": 6,
                              "spacing": "log"}},
    })
    assert cli.main(["oscint", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "oscint.json")
    assert rep["cap_exponent"] <= -3.0
    assert rep["remainder_order"] == -2.0
    rows = (tmp_path / "oscint.csv").read_text().strip().splitlines()
    # the two-pole term is exact for F = 1 in dimension 3: noise only
    scaled = [float(r.split(",")[-1]) for r in rows[1:]]
    assert max(scaled) < 1e-6


def test_bad_config_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["volumes", "--config", missing, "--out", str(tmp_path)]) == 2
    bad = write_config(tmp_path / "bad.json", {"dim": 2, "nonsense": 1})
    assert cli.main(["volumes", "--config", bad, "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_module_error_exit_code(tmp_path, capsys):
    # guinand rejects non-point bodies: propagated as exit 1
    cfg = write_config(tmp_path / "c.json", {
        "dim": 2,
        "bodies": {"E": {"kind": "ellipsoid", "semiaxes": [1.3, 0.7]},
                   "p": {"kind": "point"}},
        "ranges": {"T": 20.0},
    })
    assert cli.main(["guinand", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "orthospec:" in err


def test_config_schema_validation(tmp_path):
    cases = [
        {"dim": 1},
        {"dim": 2, "bodies": {"b": {"kind": "blob"}}},
        {"dim": 2, "bodies": {"b": {"kind": "ball"}}},
        {"dim": 2, "orient": "+"},
        {"dim": 2, "twist": {"beta0": [0.1]}},
        {"dim": 2, "observables": {"phi": {"modes": {"1": 1.0}}}},
    ]
    # keys that nothing reads are unknown keys, on a config that is otherwise valid
    ball = {"dim": 2, "bodies": {"b": {"kind": "ball", "radius": 0.5}}}
    cfg = write_config(tmp_path / "c.json", ball)
    assert cli.main(["volumes", "--config", cfg, "--out", str(tmp_path)]) == 0
    cases += [dict(ball, seed=0), dict(ball, tolerances={})]
    for raw in cases:
        cfg = write_config(tmp_path / "c.json", raw)
        assert cli.main(["volumes", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_orientations_the_library_rejects_are_config_errors(tmp_path, capsys):
    for orient in ("++", "--"):
        cfg = write_config(tmp_path / "c.json", {
            "dim": 2,
            "bodies": {"p": {"kind": "point"}, "q": {"kind": "ball", "radius": 0.1}},
            "orient": orient,
            "ranges": {"T": 10.0},
        })
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal is about half of the import time of every subcommand, and
    # scipy.optimize has no use since the spectral constants are closed forms
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, orthospec.cli; "
         "print('scipy.signal' in sys.modules, 'scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False False"


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
