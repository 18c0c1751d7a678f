"""CLI surfaces: formats, determinism, exit codes."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from liouville_lab import cli

RUN = [sys.executable, "-m", "liouville_lab.cli"]


def run_cli(*args, env=None):
    import os

    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          env=e, timeout=300)


def test_grid_make_and_info(tmp_path):
    out = tmp_path / "g.json"
    r = run_cli("grid", "make", "radial:4", "--area", "1", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["ambient_area"] == 1.0
    assert len(doc["faces"]) == 4
    assert not doc["periodic"]
    info = run_cli("grid", "info", str(out))
    assert info.returncode == 0
    assert "faces: 4" in info.stdout
    assert "regular: yes" in info.stdout


def test_grid_roundtrip_via_cli(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run_cli("grid", "make", "pinwheel:3:0.3,-0.2,0.1", "--out", str(out1))
    from liouville_lab.grid2d import Grid

    g = Grid.from_json(out1.read_text())
    out2.write_text(g.to_json())
    assert out1.read_text() == out2.read_text()


def test_malformed_grid_file_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("grid", "info", str(bad))
    assert r.returncode == 2
    assert "error" in r.stderr.lower()


@pytest.mark.parametrize("args", [
    ("grid", "info", "radial:x"),
    ("grid", "info", "pinwheel:3:0.1,abc"),
    ("reeb", "chords", "--surface", "ellipsoid:0.9"),
    ("reeb", "chords", "--source", "torus:1"),
    ("polar4", "sdb", "--probe", "1,2"),
    # missing inputs
    ("liouville", "flow"),
    ("polar4", "classify", "--formA", "radial:3"),
    # surfaces whose H is not positive off the origin
    ("reeb", "chords", "--surface", "ellipsoid:0,1"),
    ("reeb", "chords", "--surface", "ellipsoid:-1,1"),
    ("reeb", "chords", "--surface", "bumped:-5"),
    ("reeb", "chords", "--surface", "bumped:-4"),
    ("reeb", "chords", "--surface", "bumped:nan"),
    # arguments out of range
    ("polar4", "sdb", "--c1", "0"),
    ("reeb", "sweep", "--k", "1"),
    ("reeb", "chords", "--target", "barrier:1"),
    ("reeb", "torus", "--T", "-1"),
])
def test_malformed_spec_is_exit_2(args):
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert "error" in r.stderr.lower()
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("doc", [
    {"kind": "torus"},
    {"kind": "ellipsoid", "params": [1.0]},
    [1.0, 2.0],
])
def test_malformed_surface_file_is_exit_2(tmp_path, doc):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    r = run_cli("reeb", "torus", "--surface", str(path))
    assert r.returncode == 2, r.stderr
    assert "error" in r.stderr.lower()
    assert "Traceback" not in r.stderr


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("liouville-lab ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_liouville_build_and_flow_csv(tmp_path):
    form = tmp_path / "form.json"
    r = run_cli("liouville", "build", "--grid", "radial:3", "--out", str(form))
    assert r.returncode == 0
    doc = json.loads(form.read_text())
    assert len(doc["residues"]) == 3
    assert doc["residues"][0] == pytest.approx(-1 / 3, abs=1e-4)

    csv = tmp_path / "flow.csv"
    r2 = run_cli("liouville", "flow", "--grid", "radial:3", "--seeds", "8",
                 "--tmax", "10", "--csv", str(csv))
    assert r2.returncode == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "seed_id,t,x,y,classification"
    assert len(lines) > 8
    assert all(line.count(",") == 4 for line in lines[1:])


def test_flow_from_form_file_leaves_no_temp_files(tmp_path):
    form = tmp_path / "form.json"
    r = run_cli("liouville", "build", "--grid", "radial:3", "--out", str(form))
    assert r.returncode == 0
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    r2 = run_cli("liouville", "flow", "--form", str(form), "--seeds", "4",
                 "--tmax", "5", "--csv", str(tmp_path / "flow.csv"),
                 env={"TMPDIR": str(tmp)})
    assert r2.returncode == 0, r2.stderr
    assert list(tmp.iterdir()) == []


def test_flow_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        r = run_cli("liouville", "flow", "--grid", "radial:3", "--seeds", "6",
                    "--csv", str(path), env={"LIOUVILLE_LAB_SEED": "99"})
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        r = run_cli("plot", "--scene", "foliation:radial:4", "--out", str(path))
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_feasible_subcommands():
    r = run_cli("feasible", "baby", "--k", "3")
    assert r.returncode == 0
    assert "A = 2" in r.stdout
    assert "Z4(2/3)" in r.stdout
    r2 = run_cli("feasible", "ellipsoid", "--m", "2", "--d", "2", "--N", "1")
    assert r2.returncode == 1      # infeasible: exit communicates the verdict
    r3 = run_cli("feasible", "remb", "--N", "10")
    assert r3.returncode == 0
    r4 = run_cli("feasible", "ellipsoid", "--m", "3", "--d", "2", "--N", "4")
    assert r4.returncode == 2      # precondition: d, N coprime


def test_feasible_morphism_files(tmp_path):
    src = tmp_path / "s.json"
    tgt = tmp_path / "t.json"
    src.write_text(json.dumps({"components": [
        {"genus": 1, "boundary": 3, "area": 3, "weight": 1}]}))
    tgt.write_text(json.dumps({"components": [
        {"genus": 4, "boundary": 0, "area": 6, "weight": 1}]}))
    r = run_cli("feasible", "morphism", "--source", str(src), "--target", str(tgt))
    assert r.returncode == 0
    assert "feasible" in r.stdout


@pytest.mark.parametrize("field", ["genus", "area"])
def test_divisor_file_with_a_non_numeric_field_is_exit_2(tmp_path, capsys, field):
    comp = {"genus": 1, "boundary": 3, "area": 3, "weight": 1}
    comp[field] = "x"
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"components": [comp]}))
    assert cli.main(["feasible", "morphism", "--source", str(path),
                     "--target", str(path)]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_sdb_probe():
    r = run_cli("polar4", "sdb", "--c1", "3", "--area", "2",
                "--probe", "0,0,0.6666666666666666,0")
    assert r.returncode == 0
    assert "Liouville =  0.000000" in r.stdout.replace("  ", " ") or "0.000000" in r.stdout


def test_reeb_sweep_exit_code():
    r = run_cli("reeb", "sweep", "--k", "2")
    assert r.returncode == 0
    assert "components of the complement: 2" in r.stdout


def test_check_all_exit_zero():
    r = run_cli("check-all", "--grid", "radial:3", "--samples", "150")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PASS" in r.stdout and "FAIL" not in r.stdout


@pytest.mark.parametrize("argv", [
    ("grid", "info", "{path}"),
    ("reeb", "chords", "--source", "{path}"),
    ("reeb", "chords", "--target", "{path}"),
    ("feasible", "morphism", "--source", "{path}", "--target", "{path}"),
    ("liouville", "flow", "--form", "{path}"),
])
@pytest.mark.parametrize("doc", [[1, 2], "grid", 3.5, None])
def test_json_file_that_is_not_an_object_is_exit_2(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([a.format(path=path) for a in argv]) == 2
    assert "error" in capsys.readouterr().err.lower()
