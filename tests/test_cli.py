"""Command-line behavior: outputs, option combinations, exit codes."""

import json
import subprocess
import sys
from collections import Counter

import pytest

from tetsubdiv import cli
from tetsubdiv.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, run
from tetsubdiv.connectivity import generate
from tetsubdiv.io import FieldData, write_json, write_off_boundary, write_vtk_legacy


def test_gen_vtk_matches_library_output(tmp_path):
    out = tmp_path / "mesh.vtk"
    assert run(["gen", "--order", "3", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == write_vtk_legacy(generate(3))


def test_gen_json_and_off(tmp_path):
    jout = tmp_path / "mesh.json"
    assert run(["gen", "--order", "2", "--format", "json", "--out", str(jout)]) == EXIT_OK
    assert jout.read_bytes() == write_json(generate(2))

    oout = tmp_path / "mesh.off"
    assert run(["gen", "--order", "2", "--format", "off", "--out", str(oout)]) == EXIT_OK
    assert oout.read_bytes() == write_off_boundary(generate(2))


def test_gen_overwrite_equals_a_fresh_write(tmp_path):
    fresh = tmp_path / "fresh.json"
    assert run(["gen", "--order", "3", "--format", "json", "--out", str(fresh)]) == EXIT_OK
    out = tmp_path / "m.json"
    assert run(["gen", "--order", "6", "--format", "json", "--out", str(out)]) == EXIT_OK
    assert run(["gen", "--order", "3", "--format", "json", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == fresh.read_bytes()


def test_gen_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "target.vtk"
    target.write_bytes(b"old bytes " * 1000)
    link = tmp_path / "link.vtk"
    link.symlink_to(target)
    assert run(["gen", "--order", "2", "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert target.read_bytes() == write_vtk_legacy(generate(2))


def test_gen_to_stdout(capfdbinary):
    assert run(["gen", "--order", "1", "--out", "-"]) == EXIT_OK
    captured = capfdbinary.readouterr()
    assert captured.out == write_vtk_legacy(generate(1))


def test_gen_with_field_and_embedding(tmp_path):
    fpath = tmp_path / "f.txt"
    fpath.write_text("\n".join(str(v) for v in range(4)))
    out = tmp_path / "m.vtk"
    argv = [
        "gen", "--order", "1", "--out", str(out), "--field", str(fpath),
        "--embedding", "0", "0", "2", "0", "0", "0", "2", "0", "0", "0", "2", "0",
    ]
    assert run(argv) == EXIT_OK
    text = out.read_text()
    assert "0.0 0.0 2.0" in text
    assert "SCALARS f double 1" in text


def test_gen_with_permutation(tmp_path):
    mesh = generate(1)
    table = [3, 2, 1, 0]
    ppath = tmp_path / "perm.json"
    ppath.write_text(json.dumps(table))
    out = tmp_path / "m.json"
    argv = [
        "gen", "--order", "1", "--format", "json",
        "--out", str(out), "--permutation", str(ppath),
    ]
    assert run(argv) == EXIT_OK
    doc = json.loads(out.read_text())
    assert [n["i"] for n in doc["nodes"]] == [
        mesh.nodes[old].i for old in (3, 2, 1, 0)
    ]


def test_gen_option_conflicts(tmp_path):
    fpath = tmp_path / "f.txt"
    fpath.write_text("0 1 2 3")
    emb = ["--embedding"] + ["0", "0", "1", "0", "0", "0", "1", "0", "0", "0", "1", "0"]
    base = ["gen", "--order", "1", "--out", "-"]
    assert run(base + ["--format", "off", "--field", str(fpath)]) == EXIT_USAGE
    assert run(base + ["--format", "json"] + emb) == EXIT_USAGE


def test_gen_rejects_coplanar_embedding():
    flat = ["0", "0", "0", "1", "0", "0", "0", "1", "0", "1", "1", "0"]
    assert run(["gen", "--order", "1", "--out", "-", "--embedding"] + flat) == EXIT_USAGE


@pytest.mark.parametrize(
    "value, message",
    [
        # words are not plain decimals; 1e999 is one, but overflows to inf
        pytest.param("nan", "must be a plain decimal number, got 'nan'", id="nan"),
        pytest.param("inf", "must be a plain decimal number, got 'inf'", id="inf"),
        pytest.param("1e999", "embedding corner 0 x must be finite", id="1e999"),
    ],
)
def test_gen_rejects_non_finite_embedding(tmp_path, capsys, value, message):
    corners = [value, "0", "0", "1", "0", "0", "0", "1", "0", "0", "0", "1"]
    out = tmp_path / "o.vtk"
    assert run(["gen", "--order", "1", "--out", str(out), "--embedding"] + corners) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token", ["1_0", "\u0661", " 1"])
def test_embedding_takes_plain_decimals_only(token, capsys):
    # float() alone takes '1_0', the Arabic-Indic digit one and ' 1'
    corners = [token, "0", "0", "1", "0", "0", "0", "1", "0", "0", "0", "1"]
    assert run(["gen", "--order", "1", "--out", "-", "--embedding"] + corners) == EXIT_USAGE
    assert f"must be a plain decimal number, got {token!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "resample"])
@pytest.mark.parametrize("token, printed", [("-1e-3", "-0.001"), ("-1E+2", "-100.0")])
def test_embedding_takes_negative_exponent_forms(tmp_path, command, token, printed):
    # argparse alone reads a '-'-led token it does not take for a number as an option
    fpath = tmp_path / "f.txt"
    fpath.write_text("0 1 2 3")
    out = tmp_path / "o.vtk"
    corners = [token, "0", "0", "1", "0", "0", "0", "1", "0", "0", "0", "1"]
    argv = [command, "--order", "1", "--field", str(fpath), "--out", str(out), "--embedding"]
    assert run(argv + corners) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[lines.index("POINTS 4 double") + 1] == f"{printed} 0.0 0.0"


def test_gen_refuses_before_building_the_mesh(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused input must not build the mesh")

    monkeypatch.setattr(cli, "generate", refuse)
    short = tmp_path / "short.txt"
    short.write_text("0 1 2 3")
    perm = tmp_path / "perm.txt"
    perm.write_text("0 0 1 2")
    emb = ["--embedding", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0", "1", "0"]
    flat = ["--embedding", "0", "0", "0", "1", "0", "0", "0", "1", "0", "1", "1", "0"]
    cases = [
        (["gen", "--order", "0", "--format", "json", "--field", str(short)] + emb,
         "order must be >= 1, got 0: nothing to subdivide"),
        (["gen", "--order", "64", "--format", "json"] + emb,
         "--embedding applies only to --format vtk"),
        (["gen", "--order", "64", "--format", "off"] + emb,
         "--format off accepts neither fields nor an embedding"),
        (["gen", "--order", "64", "--field", str(short)],
         "field has 4 values but order 64 requires 47905"),
        (["resample", "--order", "64", "--field", str(short)],
         "field has 4 values but order 64 requires 47905"),
        (["gen", "--order", "1"] + flat, "degenerate embedding"),
        (["gen", "--order", "1", "--permutation", str(perm)],
         "permutation table is not a bijection on 0..3"),
    ]
    for argv, message in cases:
        assert run(argv + ["--out", str(tmp_path / "o")]) == EXIT_USAGE, argv
        assert message in capsys.readouterr().err, argv
    assert not (tmp_path / "o").exists()


def test_gen_io_error(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "m.vtk"
    assert run(["gen", "--order", "2", "--out", str(missing_dir)]) == EXIT_IO


def test_validate_order_passes(capsys):
    assert run(["validate", "--order", "2", "--samples", "200"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("validation of order-2 subdivision: PASS")


def test_validate_json_output(capsys):
    assert run(["validate", "--order", "2", "--samples", "50", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 7


def test_validate_pairwise_limit_is_removed(capsys):
    argv = ["validate", "--order", "2", "--pairwise-limit", "3"]
    assert run(argv) == EXIT_USAGE
    assert "--pairwise-limit" in capsys.readouterr().err


def test_validate_json_mesh_file(tmp_path, capsys):
    path = tmp_path / "mesh.json"
    write_json(generate(2), path)
    assert run(["validate", "--in", str(path), "--samples", "100"]) == EXIT_OK
    capsys.readouterr()


def test_validate_detects_corrupted_file(tmp_path, capsys):
    doc = json.loads(write_json(generate(2)).decode())
    del doc["tets"][0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", "--in", str(path), "--samples", "100"]) == EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out


def test_validate_deeply_nested_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["validate", "--in", str(path)]) == EXIT_USAGE
    assert "nested too deeply" in capsys.readouterr().err


def test_validate_requires_exactly_one_source():
    assert run(["validate"]) == EXIT_USAGE
    assert run(["validate", "--order", "2", "--in", "x.json"]) == EXIT_USAGE


def test_validate_missing_file_is_io_error():
    assert run(["validate", "--in", "/no/such/mesh.json"]) == EXIT_IO


def test_info_output(capsys):
    assert run(["info", "--order", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nodes:            20" in out
    assert "tets:             27  (= 3^3)" in out
    assert "per-level counts: 1 7 19" in out
    assert "upright=10 fill=16 chunk=1" in out


def test_info_counts_match_generate(capsys):
    for n in range(1, 13):
        assert run(["info", "--order", str(n)]) == EXIT_OK
        mesh = generate(n)
        levels = Counter(t.level for t in mesh.tets)
        kinds = Counter(t.kind for t in mesh.tets)
        assert capsys.readouterr().out.splitlines() == [
            f"order:            {n}",
            f"nodes:            {len(mesh.nodes)}",
            f"tets:             {len(mesh.tets)}  (= {n}^3)",
            "per-level counts: " + " ".join(str(levels[i]) for i in range(1, n + 1)),
            f"per-kind counts:  upright={kinds['upright']} fill={kinds['fill']} "
            f"chunk={kinds['chunk']}",
        ]


def test_info_does_not_generate(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("info must not build the mesh")

    monkeypatch.setattr(cli, "generate", refuse)
    assert run(["info", "--order", "64"]) == EXIT_OK
    assert "tets:             262144  (= 64^3)" in capsys.readouterr().out
    assert run(["info", "--order", "0"]) == EXIT_USAGE
    assert run(["info", "--order", "-2"]) == EXIT_USAGE


@pytest.mark.parametrize("extra", ["", "embedding", "permutation", "embedding permutation"])
def test_resample_is_gen_vtk_with_field(tmp_path, extra):
    fpath = tmp_path / "vals.txt"
    fpath.write_text(" ".join(str(0.25 * v) for v in range(20)))
    ppath = tmp_path / "perm.txt"
    ppath.write_text(" ".join(str((7 * v + 3) % 20) for v in range(20)))
    args = ["--order", "3", "--field", str(fpath)]
    if "embedding" in extra:
        args += ["--embedding", "0.1", "0", "2", "0", "-1", "0", "3", "0.5", "0", "0", "2.5", "1"]
    if "permutation" in extra:
        args += ["--permutation", str(ppath)]
    res, gen = tmp_path / "res.vtk", tmp_path / "gen.vtk"
    assert run(["resample", *args, "--out", str(res)]) == EXIT_OK
    assert run(["gen", "--format", "vtk", *args, "--out", str(gen)]) == EXIT_OK
    assert res.read_bytes() == gen.read_bytes()


def test_resample_requires_a_field(capsys):
    assert run(["resample", "--order", "1", "--out", "-"]) == EXIT_USAGE
    assert run(["resample", "--order", "1", "--out", "-", "--format", "json"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("text", ["[[1], 2, 3, 4]", "[null, 1, 2, 3]", "[true, 1, 2, 3]"])
def test_gen_rejects_non_number_field_values(tmp_path, capsys, text):
    fpath = tmp_path / "f.json"
    fpath.write_text(text)
    assert run(["gen", "--order", "1", "--field", str(fpath), "--out", "-"]) == EXIT_USAGE
    assert "field[0] must be a finite number" in capsys.readouterr().err


def test_gen_rejects_a_field_token_that_is_not_a_plain_decimal(tmp_path, capsys):
    fpath = tmp_path / "f.txt"
    fpath.write_text("0 1 2_0 3")
    assert run(["gen", "--order", "1", "--field", str(fpath), "--out", "-"]) == EXIT_USAGE
    assert "field[2] must be a plain decimal number" in capsys.readouterr().err


def test_gen_vtk_names_a_field_whose_name_is_not_ascii(tmp_path, capsys):
    fpath = tmp_path / "données.txt"
    fpath.write_text("0 1 2 3")
    out = tmp_path / "o.vtk"
    assert run(["gen", "--order", "1", "--field", str(fpath), "--out", str(out)]) == EXIT_USAGE
    assert "fields[0] ('données')" in capsys.readouterr().err
    assert not out.exists()
    argv = ["gen", "--order", "1", "--format", "json", "--field", str(fpath), "--out", "-"]
    assert run(argv) == EXIT_OK


def test_gen_vtk_refuses_two_fields_of_one_name(tmp_path, capsys):
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths += ["--field", str(tmp_path / folder / "u.txt")]
        (tmp_path / folder / "u.txt").write_text("0 1 2 3")
    out = tmp_path / "o.vtk"
    assert run(["gen", "--order", "1", "--out", str(out)] + paths) == EXIT_USAGE
    assert "fields[1] ('u') has the same VTK name as fields[0]" in capsys.readouterr().err
    assert not out.exists()


def test_resample_writes_vtk_with_point_data(tmp_path):
    fpath = tmp_path / "vals.txt"
    fpath.write_text("0.5 1.5 2.5 3.5")
    out = tmp_path / "m.vtk"
    assert run(["resample", "--order", "1", "--field", str(fpath), "--out", str(out)]) == EXIT_OK
    expected = write_vtk_legacy(
        generate(1), fields=[FieldData("vals", (0.5, 1.5, 2.5, 3.5))]
    )
    assert out.read_bytes() == expected
    text = out.read_text()
    assert "POINT_DATA 4" in text
    assert "SCALARS vals double 1" in text


def test_resample_with_permutation_moves_mesh_and_values(tmp_path):
    fpath = tmp_path / "vals.txt"
    fpath.write_text("0 1 2 3")
    ppath = tmp_path / "perm.txt"
    ppath.write_text("3 2 1 0")
    out = tmp_path / "m.vtk"
    argv = [
        "resample", "--order", "1", "--field", str(fpath),
        "--permutation", str(ppath), "--out", str(out),
    ]
    assert run(argv) == EXIT_OK
    lines = out.read_text().splitlines()
    at = lines.index("POINTS 4 double")
    # node 0 (the apex, originally first) now sits at position 3
    assert lines[at + 4] == "0.0 0.0 1.0"
    assert lines[lines.index("LOOKUP_TABLE default") + 1 :] == [
        "3.0", "2.0", "1.0", "0.0",
    ]


def test_resample_wrong_length(tmp_path):
    fpath = tmp_path / "vals.txt"
    fpath.write_text("1 2 3")
    assert run(["resample", "--order", "2", "--field", str(fpath), "--out", "-"]) == EXIT_USAGE


def test_bad_order_is_usage_error():
    assert run(["gen", "--order", "0", "--out", "-"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, token",
    [
        (["info", "--order", "1_0"], "1_0"),
        (["validate", "--order", " 2"], " 2"),
        (["validate", "--order", "2", "--samples", "1_00"], "1_00"),
        (["validate", "--order", "2", "--seed", "\u0663"], "\u0663"),
        (["gen", "-n", "\u0663", "--out", "-"], "\u0663"),
        (["resample", "--order", "1_0", "--field", "f.txt", "--out", "-"], "1_0"),
    ],
)
def test_integer_flags_take_plain_decimals_only(argv, token, capsys):
    # int() alone takes '1_0', ' 2' and the Arabic-Indic digit three
    assert run(argv) == EXIT_USAGE
    assert f"must be a plain decimal integer, got {token!r}" in capsys.readouterr().err


def test_unknown_arguments_are_usage_errors(capsys):
    assert run(["gen", "--order", "2"]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE
    capsys.readouterr()


def test_version_flag(capsys):
    assert run(["--version"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("tetsubdiv ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tetsubdiv", "info", "--order", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "tets:             8" in proc.stdout
