"""CLI surface: subcommands, file formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from hyperlat import (FGGroup, build_lattice, cli, direct_sum, eichler_transvection, groups,
                      linalg, pick_cone, reflection, standard_lattice)
from hyperlat.groups import elements_up_to
from hyperlat.isometry import LOXODROMIC, _classify_charpoly

CLI = [sys.executable, "-m", "hyperlat.cli"]


def run_cli(args, cwd):
    return subprocess.run(CLI + args, capture_output=True, text=True, cwd=cwd)


@pytest.fixture
def files(tmp_path):
    (tmp_path / "um2.json").write_text(
        json.dumps({"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]]}))
    (tmp_path / "d12.json").write_text(
        json.dumps({"gram": [[1, 0], [0, -2]]}))
    (tmp_path / "pell.json").write_text(
        json.dumps({"matrix": [[3, 4], [2, 3]]}))
    (tmp_path / "pell_group.json").write_text(
        json.dumps({"generators": [{"matrix": [[3, 4], [2, 3]]}]}))
    (tmp_path / "trans_group.json").write_text(
        json.dumps({"generators": [{"matrix": [[1, 1, 2], [0, 1, 0], [0, 1, 1]]}]}))
    return tmp_path


def out_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_info(files):
    rep = out_json(run_cli(["info", "--lattice", "um2.json"], files))
    assert rep["result"]["rank"] == 3
    assert rep["result"]["signature"] == [1, 2]
    assert rep["tool"] == "hyperlat" and rep["version"]


def test_roots_witness(files):
    rep = out_json(run_cli(["roots", "--lattice", "um2.json", "--height", "3"], files))
    assert rep["result"]["kind"] == "Witness"
    assert rep["result"]["witness"] == [0, 0, 1]


def test_isotropy(files):
    rep = out_json(run_cli(["isotropy", "--lattice", "d12.json"], files))
    assert rep["result"]["kind"] == "Anisotropic"
    assert rep["result"]["certificate"]["failing_places"]


def test_enumerate(files):
    rep = out_json(run_cli(["enumerate", "--lattice", "um2.json",
                            "--norm", "-2", "--height", "1"], files))
    assert [0, 0, 1] in rep["result"]["vectors"]


def test_classify_pell(files):
    rep = out_json(run_cli(["classify", "--lattice", "d12.json",
                            "--isometry", "pell.json"], files))
    assert rep["result"]["class"] == "loxodromic"
    assert rep["result"]["lambda_minpoly"] == [1, -6, 1]
    assert abs(rep["result"]["entropy"] - 1.762747174039086) < 1e-9
    assert len(rep["result"]["fixed_rays"]) == 2


def test_entropy_subcommand(files):
    rep = out_json(run_cli(["entropy", "--lattice", "um2.json",
                            "--group", "trans_group.json", "--budget", "3"], files))
    assert "no positive-entropy word" in rep["result"]["verdict"]


def test_orbit_and_limits(files):
    rep = out_json(run_cli(["orbit", "--lattice", "d12.json",
                            "--group", "pell_group.json",
                            "--point", "1,0", "--depth", "2"], files))
    assert rep["result"]["count"] == 5
    rep2 = out_json(run_cli(["limits", "--lattice", "d12.json",
                             "--group", "pell_group.json",
                             "--point", "1,0", "--depth", "12"], files))
    assert rep2["result"]["cluster_count"] == 2


def test_dirichlet_and_tiling(files):
    rep = out_json(run_cli(["dirichlet", "--lattice", "d12.json",
                            "--group", "pell_group.json",
                            "--point", "1,0", "--budget", "3"], files))
    assert sorted(rep["result"]["halfspaces"]) == [[1, -1], [1, 1]]
    assert rep["result"]["truncated_at"] == 3
    assert rep["result"]["hypothesis_check"]["is_generalized_polytope"]
    rep2 = out_json(run_cli(["tile-check", "--lattice", "d12.json",
                             "--group", "pell_group.json", "--point", "1,0",
                             "--budget", "3", "--check-budget", "8",
                             "--samples", "100"], files))
    assert rep2["result"]["passed"]


@pytest.mark.parametrize("option", ["--samples=0", "--samples=-3", "--check-budget=-1"])
def test_tile_check_refuses_a_check_that_checks_nothing(files, option):
    proc = run_cli(["tile-check", "--lattice", "d12.json", "--group", "pell_group.json",
                    "--point", "1,0", "--budget", "3", option], files)
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error:"), proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("sub", ["dirichlet", "tile-check"])
def test_negative_domain_budget_is_refused(files, sub):
    proc = run_cli([sub, "--lattice", "d12.json", "--group", "pell_group.json",
                    "--point", "1,0", "--budget=-1"], files)
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error:") and "word budget" in proc.stderr, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, message", [
    pytest.param(["entropy", "--group", "pell_group.json", "--budget=-1"], "word budget",
                 id="entropy"),
    pytest.param(["criteria", "k3", "--generators", "pell_group.json", "--budget=-1"],
                 "word budget", id="criteria"),
    pytest.param(["chamber-walk", "--point", "3,1", "--steps=-1"], "step budget",
                 id="chamber-walk"),
])
def test_negative_word_and_step_budgets_are_refused(files, argv, message, capsys):
    with contextlib.chdir(files):
        assert cli.main(argv + ["--lattice", "d12.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message} must be >= 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    pytest.param(["criteria", "k3", "--budget=-1"], "word budget must be >= 0",
                 id="criteria-budget-without-generators"),
    pytest.param(["criteria", "k3", "--rho=-3"], "rho must be >= 1, not -3",
                 id="criteria-rho"),
    pytest.param(["criteria", "k3", "--rho=0"], "rho must be >= 1, not 0",
                 id="criteria-rho-zero"),
    pytest.param(["entropy", "--group", "pell_group.json", "--rho=-3"],
                 "rho must be >= 1, not -3", id="entropy-rho"),
])
def test_meaningless_budget_and_rho_are_refused(files, argv, message, capsys):
    with contextlib.chdir(files):
        assert cli.main(argv + ["--lattice", "d12.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}\n"
    assert captured.out == ""


def test_entropy_rho_zero_means_the_lattice_rank(files, capsys):
    with contextlib.chdir(files):
        assert cli.main(["entropy", "--lattice", "d12.json", "--group", "pell_group.json",
                         "--budget", "2", "--rho", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["rho"] == 2


def test_chamber_walk(files):
    rep = out_json(run_cli(["chamber-walk", "--lattice", "um2.json",
                            "--point", "2,2,1", "--height", "1"], files))
    assert rep["result"]["image"] == [2, 2, -1]
    assert rep["result"]["word"] == [[0, 0, 1]]


def test_families_then_criteria(files):
    proc = run_cli(["families", "--uniform", "1", "--output", "fam.json"], files)
    assert proc.returncode == 0
    fam = json.loads((files / "fam.json").read_text())
    assert fam["gram"] == [[4, 0, 0], [0, -8, 0], [0, 0, -12]]
    rep = out_json(run_cli(["criteria", "k3", "--lattice", "fam.json"], files))
    assert rep["result"]["lattice_verdict"]["kind"] == "IsLattice"
    assert rep["result"]["fibration_verdict"]["kind"] == "NoGenusOneFibration"


def test_criteria_with_generators(files):
    (files / "rank5.json").write_text(json.dumps(
        {"gram": [[1, 0, 0, 0, 0], [0, -2, 0, 0, 0], [0, 0, -2, 0, 0],
                  [0, 0, 0, -2, 1], [0, 0, 0, 1, -2]]}))
    m = [[3, 4, 0, 0, 0], [2, 3, 0, 0, 0], [0, 0, 1, 0, 0],
         [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    (files / "gen5.json").write_text(json.dumps({"generators": [{"matrix": m}]}))
    rep = out_json(run_cli(["criteria", "k3", "--lattice", "rank5.json",
                            "--generators", "gen5.json", "--budget", "3"], files))
    ent = rep["result"]["entropy_report"]
    assert "relatively hyperbolic" in ent["verdict"]
    assert any(f["class"] == "loxodromic" for f in ent["findings"])
    assert rep["result"]["conditional_flags"]


def test_families_cc(files):
    proc = run_cli(["families", "--cc-d4", "5", "--output", "d4.json"], files)
    assert proc.returncode == 0
    assert json.loads((files / "d4.json").read_text())["gram"][0][0] == 32
    proc = run_cli(["families", "--cc-a2", "2", "--output", "a2.json"], files)
    assert json.loads((files / "a2.json").read_text())["gram"][0][0] == 54


def test_plot_artifacts(files):
    rep = out_json(run_cli(["plot", "--lattice", "d12.json",
                            "--group", "pell_group.json", "--point", "1,0",
                            "--depth", "6", "--out", "orbitplot"], files))
    csv_text = (files / "orbitplot.csv").read_text()
    assert csv_text.splitlines()[0] == "x1,tag"
    assert "basepoint" in csv_text
    svg = (files / "orbitplot.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg
    assert rep["result"]["points"] >= 13


def test_exit_code_input_errors(files):
    (files / "bad.json").write_text("{\"gram\": [[0,1],[1,")
    proc = run_cli(["info", "--lattice", "bad.json"], files)
    assert proc.returncode == 1
    assert "line" in proc.stderr  # malformed file, position-reported

    proc = run_cli(["info", "--lattice", "missing.json"], files)
    assert proc.returncode == 1
    assert "missing.json" in proc.stderr

    (files / "floaty.json").write_text(json.dumps({"gram": [[1.0, 0], [0, -2]]}))
    proc = run_cli(["info", "--lattice", "floaty.json"], files)
    assert proc.returncode == 1
    assert "integers" in proc.stderr

    proc = run_cli(["info", "--lattice", "um2.json", "--no-such-flag"], files)
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error:")
    assert "--no-such-flag" in proc.stderr


@pytest.mark.parametrize("text, group", [
    pytest.param('{"gram": 5}', False, id="gram_not_a_matrix"),
    pytest.param('[{"matrix": [[3, 4], [2, 3]]}]', True, id="group_top_level_list"),
    pytest.param('{"generators": 7}', True, id="generators_not_a_list"),
    pytest.param('{"generators": [{"matrix": 5}]}', True, id="generator_matrix_not_a_matrix"),
    pytest.param('{"matrix": [["x", 4], [2, 3]]}', False, id="isometry_entry_not_an_int"),
])
def test_malformed_input_file_is_an_input_error(files, text, group):
    (files / "bad.json").write_text(text)
    if group:
        argv = ["entropy", "--lattice", "d12.json", "--group", "bad.json"]
    elif "gram" in text:
        argv = ["info", "--lattice", "bad.json"]
    else:
        argv = ["classify", "--lattice", "d12.json", "--isometry", "bad.json"]
    proc = run_cli(argv, files)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("input error:") and "Traceback" not in proc.stderr


def test_input_file_that_is_not_utf8_is_an_input_error(files):
    (files / "bad.json").write_bytes(b'{"gram": [[1, 0], [0, -2]], "n": "\xff"}')
    proc = run_cli(["info", "--lattice", "bad.json"], files)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("input error: cannot read bad.json: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("generators, message", [
    pytest.param([{"matrix": 5}], "matrix must be a list of rows", id="not_a_matrix"),
    pytest.param([{"matrix": [[3, 4], [2, 3]]}, {"matrix": [[1, 1], [0, 1]]}],
                 "matrix does not preserve the bilinear form", id="not_orthogonal"),
])
def test_generator_errors_name_the_file_and_the_generator(files, generators, message):
    (files / "bad.json").write_text(json.dumps({"generators": generators}))
    proc = run_cli(["entropy", "--lattice", "d12.json", "--group", "bad.json"], files)
    assert proc.returncode == 1
    index = len(generators) - 1
    assert proc.stderr == f"input error: bad.json: generator {index}: {message}\n"


@pytest.mark.parametrize("matrix, message", [
    pytest.param([[1, 1], [0, 1]], "matrix does not preserve the bilinear form",
                 id="not_orthogonal"),
    pytest.param([[-1, 0], [0, -1]], "matrix swaps the two cone components",
                 id="wrong_component"),
    pytest.param([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "matrix rank 3 != lattice rank 2",
                 id="dimension_mismatch"),
])
def test_isometry_errors_name_the_file(files, matrix, message, capsys):
    (files / "bad.json").write_text(json.dumps({"matrix": matrix}))
    with contextlib.chdir(files):
        assert cli.main(["classify", "--lattice", "d12.json", "--isometry", "bad.json"]) == 1
    assert capsys.readouterr().err == f"input error: bad.json:matrix: {message}\n"


def test_classify_validates_each_input_matrix_once(files, monkeypatch, capsys):
    calls = []
    real = linalg.to_int_matrix
    monkeypatch.setattr(linalg, "to_int_matrix", lambda rows: calls.append(1) or real(rows))
    with contextlib.chdir(files):
        assert cli.main(["classify", "--lattice", "d12.json", "--isometry", "pell.json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["class"] == "loxodromic"
    assert len(calls) == 2  # the lattice's gram and the isometry's matrix


@pytest.mark.parametrize("matrix, where", [
    pytest.param([[1.0, 0], [0, -2]], "entry [0][0] is 1.0", id="float"),
    pytest.param([[1, 0], [0, True]], "entry [1][1] is True", id="bool"),
    pytest.param([[1, "0"], [0, -2]], "entry [0][1] is '0'", id="string"),
    pytest.param([[1, 0], [0]], "row [1] has 1 entries", id="ragged"),
    pytest.param([[1, 0], [[0], -2]], "entry [1][0] is [0]", id="nested"),
])
@pytest.mark.parametrize("key", ["gram", "matrix", "generator"])
def test_non_integer_entries_name_the_file_the_key_and_the_entry(files, key, matrix,
                                                                 where, capsys):
    if key == "gram":
        data, argv, prefix = {"gram": matrix}, ["info"], "bad.json:gram: "
    elif key == "matrix":
        data, prefix = {"matrix": matrix}, "bad.json:matrix: "
        argv = ["classify", "--isometry", "bad.json"]
    else:
        data, prefix = {"generators": [{"matrix": matrix}]}, "bad.json: generator 0: "
        argv = ["entropy", "--group", "bad.json"]
    (files / "bad.json").write_text(json.dumps(data))
    lattice = "bad.json" if key == "gram" else "d12.json"
    with contextlib.chdir(files):
        assert cli.main(argv + ["--lattice", lattice]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {prefix}{where}")
    assert "integers" in err or "ragged" in err


@pytest.mark.parametrize("sub", ["orbit", "limits", "dirichlet", "tile-check", "plot"])
def test_zero_point_is_not_in_cone(files, sub, capsys):
    argv = [sub, "--lattice", str(files / "d12.json"),
            "--group", str(files / "pell_group.json"), "--point", "0,0"]
    if sub == "plot":
        argv += ["--out", str(files / "zero")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "input error: the zero ray has norm 0\n"


@pytest.mark.parametrize("flag", ["--precision", "--prec"])  # run parse, argparse
def test_negative_precision_is_an_input_error(files, flag, capsys):
    argv = ["classify", "--lattice", str(files / "d12.json"),
            "--isometry", str(files / "pell.json"), flag, "-1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: --precision must be at least 0, not -1\n"


def test_negative_vector_value_after_space(files):
    # '-1,0' is a value, not an unknown option; the sign flip lands in the cone
    args = ["orbit", "--lattice", "d12.json", "--group", "pell_group.json",
            "--depth", "2", "--point"]
    flipped = out_json(run_cli(args + ["-1,0"], files))
    assert flipped["config"]["point"] == "-1,0"
    assert flipped["result"] == out_json(run_cli(args + ["1,0"], files))["result"]


@pytest.mark.parametrize("argv", [
    ["info", "--lattice", "um2.json", "--v0", "0,0,0"],
    ["roots", "--lattice", "um2.json", "--v0=0,0,0"],
    ["isotropy", "--lattice", "um2.json", "--v0", "1,1,0"],
    ["enumerate", "--lattice", "um2.json", "--norm", "-2", "--v0", "1,1,0"],
    ["families", "--uniform", "1", "--v0", "1,0,0"],
    ["criteria", "k3", "--lattice", "um2.json", "--seed", "3"],
    ["orbit", "--lattice", "d12.json", "--group", "pell_group.json", "--point", "1,0",
     "--seed=1"],
], ids=["info-v0", "roots-v0", "isotropy-v0", "enumerate-v0", "families-v0",
        "criteria-seed", "orbit-seed"])
def test_unused_options_are_refused(files, argv):
    # a subcommand takes --v0 only if it builds a cone, --seed only if it samples
    proc = run_cli(argv, files)
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error:") and "unrecognized arguments" in proc.stderr


def test_criteria_config_has_no_seed(files):
    rep = out_json(run_cli(["criteria", "k3", "--lattice", "um2.json"], files))
    assert list(rep["config"]) == ["lattice", "generators", "height", "budget", "rho"]


def test_rational_point_is_its_integer_ray(files):
    base = ["orbit", "--lattice", "um2.json", "--group", "trans_group.json", "--point"]
    half = out_json(run_cli(base + ["1/2,1,0"], files))
    assert half["config"]["point"] == "1/2,1,0"
    whole = out_json(run_cli(base + ["1,2,0"], files))
    assert half["result"] == whole["result"]
    assert [1, 2, 0] in whole["result"]["rays"]
    assert out_json(run_cli(base + ["-3/6,-1,0/7"], files))["result"] == whole["result"]


@pytest.mark.parametrize("point", ["1/0,1", "0.5,1", "1e3,1", "1/-2,1", "a,1", ",1"])
def test_bad_point_component_is_an_input_error(files, point, capsys):
    argv = ["limits", "--lattice", str(files / "d12.json"),
            "--group", str(files / "pell_group.json"), "--point", point]
    assert cli.main(argv) == 1
    bad = point.split(",")[0]
    assert capsys.readouterr().err == f"input error: bad vector component {bad!r}\n"


def test_classify_without_sympy(files):
    code = ("import sys; sys.modules['sympy'] = None\n"
            "from hyperlat.cli import main\n"
            "sys.exit(main(['classify', '--lattice', 'd12.json',"
            " '--isometry', 'pell.json']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=files)
    rep = out_json(proc)
    assert rep["result"]["lambda_minpoly"] == [1, -6, 1]


def test_exit_code_budget_error(files):
    proc = run_cli(["enumerate", "--lattice", "um2.json",
                    "--norm", "-2", "--height", "10000"], files)
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def _write_u_e8(files, name, scale=1):
    lat = direct_sum(standard_lattice("U"), standard_lattice("E8"))
    gram = [[scale * x for x in row] for row in lat.gram]
    (files / name).write_text(json.dumps({"gram": gram}))
    return gram


def test_criteria_k3_u_e8_default_height(files):
    # the rank-10 box at height 10 is 21^10 wide; the first-hit search
    # stops at the lex-first root instead of refusing the box up front
    gram = _write_u_e8(files, "ue8.json")
    rep = out_json(run_cli(["criteria", "k3", "--lattice", "ue8.json"], files))
    verdict = rep["result"]["lattice_verdict"]
    assert verdict["kind"] == "NotLattice"
    w = verdict["evidence"]["witness"]
    assert verdict["evidence"]["norm"] == -2
    assert sum(w[i] * gram[i][j] * w[j] for i in range(10) for j in range(10)) == -2


def test_roots_budget_refusal_rank10(files):
    # 11(U+E8) has no root; the search runs until the work budget is spent
    _write_u_e8(files, "x11.json", scale=11)
    start = time.perf_counter()
    proc = run_cli(["roots", "--lattice", "x11.json", "--height", "10"], files)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert elapsed < 5
    found = re.search(r"budget error: box enumeration .*: (\d+) candidates tested"
                      r".* budget of (\d+)", proc.stderr)
    assert found, proc.stderr
    tested, budget = int(found.group(1)), int(found.group(2))
    assert budget // 2 < tested <= budget


SEARCH_LATTICES = {
    "u-a2-x11.json": [[0, 11, 0, 0], [11, 0, 0, 0], [0, 0, -22, 11], [0, 0, 11, -22]],
    "uniform4.json": [[4, 0, 0, 0], [0, -8, 0, 0], [0, 0, -12, 0], [0, 0, 0, -12]],
    "cc-d4.json": [[32, 0, 0, 0, 0], [0, -2, 1, 0, 0], [0, 1, -2, 1, 1],
                   [0, 0, 1, -2, 0], [0, 0, 1, 0, -2]],
    "u-d4.json": [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, -2, 1, 0, 0],
                  [0, 0, 1, -2, 1, 1], [0, 0, 0, 1, -2, 0], [0, 0, 0, 1, 0, -2]],
}


# stdout sha1 of box searches, residue certificates and a full listing: an
# engine change that drops or reorders a hit changes one of these
@pytest.mark.parametrize("argv, sha1", [
    ("roots --lattice u-a2-x11.json", "fd19e0b129be9db609908077b988591e8b21d328"),
    ("criteria k3 --lattice u-a2-x11.json", "4b2589a4319e790c248fcd6ebfd52082ce034aa8"),
    ("roots --lattice uniform4.json", "5ac3d73afc89b20c603fa208bd6c76b733fdfe29"),
    ("criteria k3 --lattice uniform4.json", "18ed88a4277d9c97a7d0395849bd22d47b43432c"),
    ("roots --lattice cc-d4.json", "fb81049f7e3c219977a2fff8d420fd73c5dc6e14"),
    ("criteria k3 --lattice cc-d4.json", "cb1ac87b130d5daf8f35716e7dc797e2858277e3"),
    ("enumerate --lattice u-d4.json --norm -2 --height 3",
     "6d6f277f59f0043562f896121331db84b93f8d35"),
])
def test_search_report_bytes_are_pinned(tmp_path, argv, sha1):
    for name, gram in SEARCH_LATTICES.items():
        (tmp_path / name).write_text(json.dumps({"gram": gram}))
    out = io.StringIO()
    with contextlib.chdir(tmp_path), contextlib.redirect_stdout(out):
        assert cli.main(argv.split()) == 0
    assert hashlib.sha1(out.getvalue().encode()).hexdigest() == sha1


# (Gram matrix, generators: reflection roots or matrices), the last with a
# Dirichlet domain that has lineality
DOMAIN_GROUPS = {
    "u-a2-m2": ([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, -2, 1, 0], [0, 0, 1, -2, 0],
                 [0, 0, 0, 0, -2]],
                [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, -1, 0, 0, 0),
                 (1, 0, 0, 0, 1)]),
    "pell": ([[1, 0], [0, -2]], [[[3, 4], [2, 3]]]),
    "u-a2": ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]],
             [(0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 0, 0)]),
    "u-m2": ([[0, 1, 0], [1, 0, 0], [0, 0, -2]],
             [(0, 0, 1), (1, -1, 0), (1, 0, 1), (0, 1, 1)]),
}


def _write_domain_group(tmp_path, name):
    """{name}.json and {name}-group.json of one of DOMAIN_GROUPS."""
    gram, gens = DOMAIN_GROUPS[name]
    (tmp_path / f"{name}.json").write_text(json.dumps({"gram": gram}))
    o = pick_cone(build_lattice(gram), None)
    mats = [g if isinstance(g, list) else [list(r) for r in reflection(o, g).matrix]
            for g in gens]
    (tmp_path / f"{name}-group.json").write_text(
        json.dumps({"generators": [{"matrix": m} for m in mats]}))


# stdout sha1 of budget-10 Dirichlet domains and tiling checks: a double
# description change that moves a ray, a zero set or a facet changes one of these
@pytest.mark.parametrize("argv, sha1", [
    ("dirichlet u-a2-m2 --point=5,7,1,0,1", "45ccca34f2eca3228af1f7658e100b77e593acd1"),
    ("tile-check u-a2-m2 --point=5,7,1,0,1 --check-budget 3 --samples 2 --seed 1",
     "e9c25cdf5e69d8a8bbd9341bc81b9e659b2a7e36"),
    ("dirichlet pell --point=1,0", "f03af08ce85bf6ce1dac3b9c81b34a649443cc8d"),
    ("tile-check pell --point=1,0 --check-budget 8 --samples 50 --seed 1",
     "3d7d3c32be7c5d6d3ed9bad94c3f56c6b94faa5f"),
    ("dirichlet u-a2 --point=3,5,1,0", "a79ae419e0418073872e5eccd51437f1baea3ced"),
    ("tile-check u-a2 --point=3,5,1,0 --check-budget 3 --samples 5 --seed 1",
     "3f23f257d269475f386327ec68b108a2bae2e54a"),
])
def test_domain_report_bytes_are_pinned(tmp_path, argv, sha1):
    command, name, *rest = argv.split()
    _write_domain_group(tmp_path, name)
    out = io.StringIO()
    with contextlib.chdir(tmp_path), contextlib.redirect_stdout(out):
        assert cli.main([command, "--lattice", f"{name}.json", "--group", f"{name}-group.json",
                         "--budget", "10", *rest]) == 0
    assert hashlib.sha1(out.getvalue().encode()).hexdigest() == sha1


# stdout sha1 of limit samples and chamber walks, taken when every orbit point
# was mapped to the ball and every root paired by a full Gram product: the
# pairing prefilter and the walk through G x must leave every byte as it was.
# Pell from (11,3) at depth 8 reaches a point just past the far threshold.
@pytest.mark.parametrize("argv, sha1", [
    ("limits pell --point=1,0 --depth 12", "db247ccf77924351fad520ed88662ab754df89cc"),
    ("limits pell --point=11,3 --depth 8", "a18e74adbd17f2b33bc2137a20ac1d7e13534c58"),
    ("limits u-m2 --point=3,5,1 --depth 9", "c325e244b2f4a323a21c63251a0569982f27b041"),
    ("limits u-a2 --point=3,5,1,0 --depth 6", "1819af31668e64740a8a725106991a2ef11509af"),
    ("limits u-a2-m2 --point=5,7,1,0,1 --depth 6",
     "9656a462eb512c59c9d98e29b94981073c1d38ae"),
    ("chamber-walk u-m2 --point=37,13,5 --height 6",
     "7ebef8f74ad9fc88844801268d59301b03fc69fc"),
    ("chamber-walk u-m2 --point=9,14,5 --height 1 --steps 1",
     "cc245b33a0b53a77d194f1ba2a4bfd7e641c6878"),
    ("chamber-walk u-a2-m2 --point=15,13,1,0,1 --v0=1,1,0,0,0 --height 3",
     "5c3df233a9e4e25f956203597a1d8af5d66a89e9"),
])
def test_limit_and_walk_report_bytes_are_pinned(tmp_path, argv, sha1):
    command, name, *rest = argv.split()
    _write_domain_group(tmp_path, name)
    group = [] if command == "chamber-walk" else ["--group", f"{name}-group.json"]
    out = io.StringIO()
    with contextlib.chdir(tmp_path), contextlib.redirect_stdout(out):
        assert cli.main([command, "--lattice", f"{name}.json", *group, *rest]) == 0
    assert hashlib.sha1(out.getvalue().encode()).hexdigest() == sha1


# sha1 of the CSV and SVG that plot writes, taken when plot ran the orbit search
# once for the orbit points and again for the limit directions: one search
# must leave both files as they were.  Pell from (1,0) at depth 12 has two
# limit directions, from (11,3) at depth 8 one, and the U+<-2> group none.
@pytest.mark.parametrize("argv, csv_sha1, svg_sha1", [
    ("pell --point=1,0 --depth 12", "429ebf8955e380c9a110227df4e7a80ad0c7fe08",
     "ae2910bf2739f22408030f540143bde8f6b91c9b"),
    ("pell --point=11,3 --depth 8", "f708f59c5a0f551f2bfc32ab2272ff96a76a5444",
     "ae7d78ae44f59aad12e4fdb4c863b960e046f568"),
    ("u-m2 --point=3,5,1 --depth 5", "903e5d12b7e86909e65762f289c7ada16350476b",
     "c6a3a09e7c85743d05949fcb34d851005dfab580"),
])
def test_plot_files_are_pinned(tmp_path, argv, csv_sha1, svg_sha1, monkeypatch):
    name, *rest = argv.split()
    _write_domain_group(tmp_path, name)
    searches = []
    real_search = groups._orbit_ball
    monkeypatch.setattr(groups, "_orbit_ball",
                        lambda *a: searches.append(a) or real_search(*a))
    with contextlib.chdir(tmp_path), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["plot", "--lattice", f"{name}.json", "--group", f"{name}-group.json",
                         *rest, "--out", "p"]) == 0
    assert len(searches) == 1
    assert hashlib.sha1((tmp_path / "p.csv").read_bytes()).hexdigest() == csv_sha1
    assert hashlib.sha1((tmp_path / "p.svg").read_bytes()).hexdigest() == svg_sha1


@pytest.mark.parametrize("command", ["limits", "plot"])
def test_orbit_points_beyond_floats_are_a_budget_error(files, command, capsys):
    # the Pell orbit at depth 500 has coordinates near 10^383
    argv = [command, "--lattice", "d12.json", "--group", "pell_group.json",
            "--point=-1,0", "--depth", "500"]
    if command == "plot":
        argv += ["--out", "deep"]
    with contextlib.chdir(files):
        assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget error: the ray's coordinates exceed the float range "
                            "of the ball model\n")
    assert not list(files.glob("deep*"))


@pytest.mark.parametrize("norm", ["0", "2", "-1", "-4"])
def test_chamber_walk_refuses_a_norm_other_than_minus_two(files, norm, capsys, monkeypatch):
    def no_search(*_args):
        raise AssertionError("searched for roots")
    monkeypatch.setattr("hyperlat.groups.enumerate_norm_vectors", no_search)
    with contextlib.chdir(files):
        assert cli.main(["chamber-walk", "--lattice", "um2.json", "--point=37,13,5",
                         "--norm", norm]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: chamber walks reflect in roots of norm -2, not {norm}\n"


def test_degenerate_lattice_rejected(files):
    (files / "deg.json").write_text(json.dumps({"gram": [[1, 2], [2, 4]]}))
    proc = run_cli(["info", "--lattice", "deg.json"], files)
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error:")
    assert "determinant 0" in proc.stderr


def test_output_deterministic_across_runs(files):
    args = ["criteria", "k3", "--lattice", "um2.json"]
    a = run_cli(args, files)
    b = run_cli(args, files)
    assert out_json(a) and out_json(b)
    assert a.stdout == b.stdout


def test_warm_classification_cache_leaves_reports_unchanged(files, monkeypatch, capsys):
    """Reports from one process that classified before equal cold runs."""
    o = pick_cone(cli.load_lattice(str(files / "um2.json")), (1, 1, 0))
    gens = [reflection(o, d) for d in ((0, 0, 1), (1, 0, 1), (0, 1, 1))]
    gens += [eichler_transvection(o, e, (0, 0, 1)) for e in ((1, 0, 0), (0, 1, 0))]
    (files / "um2_group.json").write_text(
        json.dumps({"generators": [{"matrix": g.matrix} for g in gens]}))
    lox = next(e for e, _ in elements_up_to(FGGroup(tuple(gens)), 3)
               if e.classification.kind == LOXODROMIC)
    (files / "um2_lox.json").write_text(json.dumps({"matrix": lox.matrix}))
    entropy = ["entropy", "--lattice", "um2.json", "--group", "um2_group.json",
               "--budget", "3"]
    classify = ["classify", "--lattice", "um2.json", "--isometry", "um2_lox.json"]
    cold = {tuple(a): run_cli(a, files) for a in (entropy, classify)}
    assert all(p.returncode == 0 for p in cold.values())
    assert "loxodromic" in cold[tuple(entropy)].stdout
    monkeypatch.chdir(files)
    _classify_charpoly.cache_clear()
    # classify's fixed rays narrow its scale's bracket before the last entropy
    for argv in (entropy, entropy, classify, entropy):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == cold[tuple(argv)].stdout, argv
    assert _classify_charpoly.cache_info().hits > 0


def test_roots_output_deterministic_across_runs(files):
    args = ["roots", "--lattice", "um2.json", "--height", "2"]
    a = run_cli(args, files)
    b = run_cli(args, files)
    assert out_json(a) and out_json(b)
    assert a.stdout == b.stdout


# -- run parse and argparse ------------------------------------------------------------
# representative argvs per subcommand: defaults only, then values given as
# '--flag value', '--flag=value', a negative vector and an abbreviated option
PARSE_CASES = {
    "info": [["info", "--lattice", "l.json"],
             ["info", "--lattice=l.json", "--prec", "5", "--out", "o.json"]],
    "roots": [["roots", "--lattice", "l.json"],
              ["roots", "--lattice", "l.json", "--height=3", "--norm", "-4"]],
    "isotropy": [["isotropy", "--lattice", "l.json"],
                 ["isotropy", "--lat", "l.json", "--height", "2", "--output=o.json"]],
    "enumerate": [["enumerate", "--lattice", "l.json", "--norm", "-2"],
                  ["enumerate", "--lattice", "l.json", "--norm=-2", "--prim", "--height", "4"]],
    "classify": [["classify", "--lattice", "l.json", "--isometry", "i.json"],
                 ["classify", "--lattice", "l.json", "--iso=i.json", "--output", "o.json",
                  "--v0", "1,0"]],
    "entropy": [["entropy", "--lattice", "l.json", "--group", "g.json"],
                ["entropy", "--lattice", "l.json", "--group=g.json", "--bud", "4", "--rho", "3"]],
    "orbit": [["orbit", "--lattice", "l.json", "--group", "g.json", "--point", "1,0"],
              ["orbit", "--lattice", "l.json", "--group", "g.json", "--point", "-1,0",
               "--dep", "3"]],
    "limits": [["limits", "--lattice", "l.json", "--group", "g.json", "--point", "1,0"],
               ["limits", "--lattice", "l.json", "--group", "g.json", "--point=-1,0",
                "--depth=3"]],
    "dirichlet": [["dirichlet", "--lattice", "l.json", "--group", "g.json", "--point", "1,0"],
                  ["dirichlet", "--lattice", "l.json", "--group", "g.json", "--point",
                   "-1,0", "--bud", "4", "--v0=1,0"]],
    "tile-check": [["tile-check", "--lattice", "l.json", "--group", "g.json", "--point", "1,0"],
                   ["tile-check", "--lattice", "l.json", "--group", "g.json", "--point=-1,0",
                    "--check", "2", "--samples=7", "--budget", "3", "--seed", "9"]],
    "chamber-walk": [["chamber-walk", "--lattice", "l.json", "--point", "2,2,1"],
                     ["chamber-walk", "--lattice", "l.json", "--point", "-1,2,3",
                      "--strict", "--steps=5", "--norm", "-4"]],
    "criteria": [["criteria", "k3", "--lattice", "l.json"],
                 ["criteria", "k3", "--lattice", "l.json", "--gen", "g.json", "--rho=4",
                  "--height", "3", "--v0=1,0,0"]],
    "families": [["families", "--uniform", "2"],
                 ["families", "--cc-d4=3", "--mem", "4", "--output", "f.json"]],
    "plot": [["plot", "--lattice", "l.json", "--group", "g.json", "--point", "1,0",
              "--out", "p"],
             ["plot", "--lattice", "l.json", "--group", "g.json", "--point", "-1,0",
              "--out=p", "--depth", "2", "--precision", "4"]],
}


def _outcome(parser, argv, capsys):
    """(exit code or None, Namespace or None, stdout, stderr) of one parse."""
    try:
        ns, code = parser.parse_args(argv), None
    except SystemExit as exc:
        ns, code = None, exc.code
    captured = capsys.readouterr()
    return code, ns, captured.out, captured.err


def _main_outcome(argv, capsys):
    """(exit code, stdout, stderr) of a `cli.main` that exits in argparse."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _subcommands(parser):
    return list(parser._subparsers._group_actions[0].choices)


def _assert_run_parse_like_argparse(parser, argv, capsys):
    """Where the run parse takes `argv`, argparse gives the same namespace."""
    run = cli._parse_run(argv)
    if run is not None:
        code, ns, out, err = _outcome(parser, argv, capsys)
        assert code is None, (argv, err)
        assert vars(run) == vars(ns), argv
    return run


def test_subcommand_parser_covers_every_subcommand():
    assert _subcommands(cli.build_parser()) == list(cli._COMMANDS)
    assert sorted(cli._COMMANDS) == sorted(PARSE_CASES)


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_subcommand_parser_parses_like_full_parser(name, capsys):
    parser = cli.build_parser()
    for argv in PARSE_CASES[name]:
        assert _outcome(parser, argv, capsys)[0] is None, argv
        _assert_run_parse_like_argparse(parser, argv, capsys)
    # the defaults-only case uses no abbreviation, so the run parse takes it
    assert cli._parse_run(PARSE_CASES[name][0]) is not None


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_subcommand_parser_help_and_errors_like_full_parser(name, capsys):
    required = PARSE_CASES[name][0]
    argvs = [[name, "--help"],
             required + ["--no-such-flag"],           # unknown flag
             required + ["--precision", "many"]]      # bad int
    if name != "families":  # the one subcommand without --lattice
        argvs.append([a for a in required if a not in ("--lattice", "l.json")])
    for argv in argvs:
        assert cli._parse_run(argv) is None, argv
        one = _main_outcome(argv, capsys)
        assert one[0] is not None and (one[1] or one[2]), argv
        code, _, out, err = _outcome(cli.build_parser(), argv, capsys)
        assert one == (code, out, err)
    if name != "families":
        assert "required: --lattice" in one[2] and one[0] == 1


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["-h", "roots"], ["--version"],
                                  ["no-such-subcommand"], ["--lattice", "l.json", "info"]])
def test_non_subcommand_argv_gets_full_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    code, (out, err) = exc.value.code, capsys.readouterr()
    want = _outcome(cli.build_parser(), argv, capsys)
    assert (code, out, err) == (want[0], want[2], want[3])
    assert code == (0 if argv[:1] in (["--help"], ["-h"], ["--version"]) else 1)
    if code == 0 and argv[0] != "--version":
        assert "{info,roots,isotropy," in out  # every subcommand listed


def _random_argv(rng, name, mutate):
    """A well-formed argv of `name` from the option table; with `mutate`, one
    token is then replaced by a form the run parse must leave to argparse or
    must still read as argparse does."""
    _, _, rows = cli._COMMANDS[name]
    groups, kind = [], None
    for flag, typ, _, required, choices, _ in rows:
        if not flag.startswith("--"):
            kind = [rng.choice(choices)]
            continue
        for _ in range(rng.choice((1, 1, 2, 3)) if required else rng.choice((0, 0, 1, 2))):
            if typ is bool:
                groups.append([flag])
                continue
            if choices:
                value = str(rng.choice(choices))
            elif typ is int:
                value = str(rng.choice((-2, -1, 0, 1, 3, 12, 40)))
            else:
                value = rng.choice(("l.json", "1,0", "-1,0", "-2,3,1", "a=b", "", "x y"))
            groups.append([f"{flag}={value}"] if rng.random() < 0.5 else [flag, value])
    rng.shuffle(groups)
    if kind:
        groups.insert(rng.randrange(len(groups) + 1), kind)
    argv = [name] + [tok for group in groups for tok in group]
    if mutate and len(argv) > 1:
        i = rng.randrange(1, len(argv))
        tok = argv[i]
        argv[i] = rng.choice((
            tok[:4] if tok.startswith("--") else tok,   # abbreviation
            tok.partition("=")[0] + "=1",               # '=' on a flag
            "-h", "--", "-x", "-", "--version", "-.5", "-3e", "k3", "nine", "--lattice"))
        if rng.random() < 0.3:
            del argv[rng.randrange(1, len(argv))]
    return argv


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_run_parse_matches_argparse_on_random_argvs(name, capsys):
    rng = random.Random(f"hyperlat-{name}")
    parser = cli.build_parser()
    for _ in range(60):
        argv = _random_argv(rng, name, mutate=False)
        assert _assert_run_parse_like_argparse(parser, argv, capsys) is not None, argv
    taken = 0
    for _ in range(120):
        argv = _random_argv(rng, name, mutate=True)
        taken += _assert_run_parse_like_argparse(parser, argv, capsys) is not None
    assert 0 < taken < 120


def _count_add_parser(monkeypatch):
    calls = []
    real = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        calls.append(name)
        return real(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return calls


def test_run_builds_no_parser(files, monkeypatch, capsys):
    calls = _count_add_parser(monkeypatch)
    assert cli.main(["info", "--lattice", str(files / "um2.json")]) == 0
    assert calls == []
    assert json.loads(capsys.readouterr().out)["result"]["rank"] == 3


def test_help_builds_every_subparser(monkeypatch, capsys):
    calls = _count_add_parser(monkeypatch)
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert sorted(calls) == sorted(PARSE_CASES)


def test_run_imports_no_argparse(files):
    # between them these runs bracket a scale, take its entropy, build a
    # cone's frame and diagonalise forms: none of it may import fractions
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hyperlat.cli; "
            "rc = hyperlat.cli.main(sys.argv[2:]); "
            "print(rc, [m for m in ('argparse', 'gettext', 'shutil', 'locale', "
            "'fractions', 'decimal', 'numbers') if m in sys.modules])")
    for argv, kind in [
            (["roots", "--lattice", "um2.json", "--height", "2"], "Witness"),
            (["classify", "--lattice", "d12.json", "--isometry", "pell.json"], None),
            (["limits", "--lattice", "d12.json", "--group", "pell_group.json",
              "--point", "1,0"], None)]:
        proc = subprocess.run([sys.executable, "-S", "-c", code, src, *argv],
                              capture_output=True, text=True, check=True, cwd=files)
        assert proc.stdout.splitlines()[-1] == "0 []", argv
        rep = json.loads(proc.stdout[:proc.stdout.rindex("}") + 1])
        assert rep["command"] == argv[0]
        if kind:
            assert rep["result"]["kind"] == kind


# -- golden help and error bytes --------------------------------------------------------
# Captured from the argparse-only front end with `python tests/test_cli.py`, which
# rewrites the fixture; argparse's texts are the interpreter's, so the fixture
# records the Python version it was taken with.
GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
GOLDEN_COLUMNS = (80, 132)


def _golden_argvs():
    argvs = [["--help"], ["--version"]]
    for name, cases in PARSE_CASES.items():
        required = cases[0]
        argvs += [[name, "--help"],
                  required + ["--no-such-flag"],           # unknown flag
                  required + ["--precision", "many"]]      # bad int
        if "--lattice" in required:
            argvs.append([a for a in required if a not in ("--lattice", "l.json")])
    return argvs + [["criteria", "x"], ["families", "--uniform", "1", "--member", "5"]]


def _capture(argv, columns):
    """Exit code, stdout and stderr of `cli.main(argv)` at a terminal width."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(columns)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"argv": argv, "columns": columns, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _python():
    return "%d.%d" % sys.version_info[:2]


def test_help_and_error_bytes_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["python"] != _python():
        pytest.skip(f"argparse texts of Python {_python()}; fixture is {golden['python']}")
    runs = golden["runs"]
    assert [(r["argv"], r["columns"]) for r in runs] == \
        [(argv, c) for c in GOLDEN_COLUMNS for argv in _golden_argvs()]
    for want in runs:
        assert _capture(want["argv"], want["columns"]) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"python": _python(),
         "runs": [_capture(argv, c) for c in GOLDEN_COLUMNS for argv in _golden_argvs()]},
        indent=1) + "\n", encoding="utf-8")
