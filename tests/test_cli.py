import json
import os

import pytest

from grainflow.cli import cli_main
from grainflow.frames import CSV_HEADER

TWO_BANDS = """domain torus
labels 2
line y=0.25 left=1 right=2
line y=0.75 left=2 right=1
"""

CIRCLE = """domain plane bbox=(-1.5,-1.5,1.5,1.5)
labels 2
circle center=(0,0) r=1 n=64 inside=1 outside=2
"""


def write_scene(tmp_path, text, name="scene.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_missing_scene_file_exits_1(tmp_path, capsys):
    rc = cli_main(["--scene", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "cannot read scene" in capsys.readouterr().err


def test_parse_error_exits_1(tmp_path, capsys):
    scene = write_scene(tmp_path, "domain torus\nlabels 2\nbogus 1\n")
    rc = cli_main(["--scene", scene, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "scene error" in capsys.readouterr().err


def test_infeasible_parameters_exit_1(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_BANDS)
    rc = cli_main(["--scene", scene, "--mode", "practical", "--j", "2",
                   "--epsilon", "0.2", "--dt", "0.1", "--steps", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "infeasible parameters" in capsys.readouterr().err


def test_exp_weight_on_torus_rejected(tmp_path, capsys):
    scene = write_scene(tmp_path, TWO_BANDS)
    rc = cli_main(["--scene", scene, "--omega", "exp", "--epsilon", "0.2",
                   "--dt", "0.001", "--steps", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "constant weight" in capsys.readouterr().err


def test_practical_run_artifacts(tmp_path):
    scene = write_scene(tmp_path, CIRCLE)
    out = str(tmp_path / "out")
    rc = cli_main(["--scene", scene, "--mode", "practical", "--j", "2",
                   "--epsilon", "0.2", "--dt", "0.002", "--steps", "6",
                   "--frame-every", "3", "--out", out])
    assert rc == 0
    frames = sorted(f for f in os.listdir(out) if f.startswith("frame_"))
    assert frames == ["frame_%06d.csv" % i for i in range(len(frames))]
    assert len(frames) == 3  # t=0 plus steps 3 and 6
    first = open(os.path.join(out, frames[0])).read()
    assert first.startswith(CSV_HEADER + "\n")
    with open(os.path.join(out, "report.jsonl")) as f:
        recs = [json.loads(line) for line in f]
    assert len(recs) == 6
    assert [r["step"] for r in recs] == list(range(1, 7))
    assert all(r["violations"] == [] for r in recs)
    assert recs[-1]["mass"] < recs[0]["mass_pre"]
    svg = open(os.path.join(out, "final.svg")).read()
    assert svg.startswith("<svg") or "<svg" in svg


def test_paper_mode_runs_with_diagnostics(tmp_path):
    scene = write_scene(tmp_path, TWO_BANDS)
    out = str(tmp_path / "out")
    rc = cli_main(["--scene", scene, "--mode", "paper", "--j", "2",
                   "--epsilon", str(2.0 ** -12), "--steps", "1",
                   "--diagnostics", "density", "--out", out])
    assert rc == 0
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert "density" in diag
    with open(os.path.join(out, "report.jsonl")) as f:
        recs = [json.loads(line) for line in f]
    assert len(recs) == 1
    assert recs[0]["violations"] == []
    # nothing visibly moves at dt = 2^-276
    assert recs[0]["mass"] == pytest.approx(2.0, abs=1e-12)


def test_modulus_diagnostic_of_static_scene_is_zero(tmp_path):
    # straight bands do not move, so no frame pair changes any grain's area
    scene = write_scene(tmp_path, TWO_BANDS)
    out = str(tmp_path / "out")
    rc = cli_main(["--scene", scene, "--epsilon", "0.2", "--dt", "0.002",
                   "--steps", "4", "--frame-every", "2",
                   "--diagnostics", "modulus", "--out", out])
    assert rc == 0
    assert len([f for f in os.listdir(out) if f.startswith("frame_")]) == 3
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert diag["modulus"] == {"1": 0.0, "2": 0.0}


def test_determinism_byte_identical(tmp_path):
    scene = write_scene(tmp_path, CIRCLE)
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        rc = cli_main(["--scene", scene, "--epsilon", "0.2", "--dt", "0.002",
                       "--j", "2", "--steps", "4", "--seed", "7",
                       "--out", out])
        assert rc == 0
        outs.append(out)
    for fname in sorted(os.listdir(outs[0])):
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
        assert a == b, fname
