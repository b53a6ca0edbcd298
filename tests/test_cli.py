import hashlib
import itertools
import json
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flaglab as fl
from flaglab import certify, cli, fibers
from flaglab.cli import main

from oracles import contragredient


def run(argv):
    return main([str(a) for a in argv])


# --- exit codes ---------------------------------------------------------------


def test_certify_exit_codes(tmp_path):
    assert run(["certify", "builtin:schottky", "--k", 1, "--radius", 6, "--out", tmp_path]) == 0
    assert run(["certify", "builtin:trivial", "--k", 1, "--out", tmp_path]) == 2
    assert run(["certify", "builtin:unipotent", "--k", 1, "--out", tmp_path]) == 2


@pytest.mark.parametrize("rep,k", [("sym4", 2), ("sym3", 1)])
def test_certify_radius_10(tmp_path, rep, k):
    # a ball of 118,097 words: numerical trouble in a large sweep must never
    # read as a refutation
    assert run(["certify", f"builtin:{rep}", "--k", k, "--radius", 10, "--out", tmp_path]) == 0
    rows = (tmp_path / "certify.csv").read_text().splitlines()[2:]
    assert len(rows) == 10
    assert all(row.endswith(",certified") for row in rows)


def _one_generator_rep_file(tmp_path, m, presentation):
    d = m.shape[0]
    doc = {
        "format": 1,
        "dim": d,
        "presentation": presentation,
        "generators": [[[[m[i, j], 0.0] for j in range(d)] for i in range(d)]],
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    return path


def _mp_middle_gap(m, n, digits=400):
    """The middle gap of the 4x4 matrix m to the power n, from a 400-digit
    product and SVD."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        s = mpmath.svd_c(mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in m]) ** n,
                         compute_uv=False)
        s = sorted((mpmath.mpf(x) for x in s), reverse=True)
        return float((mpmath.log(s[1]) - mpmath.log(s[2])) / 2)


def test_numerical_failures_exit_3(tmp_path, capsys):
    # a generator whose second exterior power has an entry past the float
    # range, 1e310: the gap of a word product is not finite
    m = np.diag([1e155, 1e155, 1e-155, 1e-155])
    path = _one_generator_rep_file(tmp_path, m, {"kind": "free", "rank": 1})
    assert run(["certify", str(path), "--k", 1, "--radius", 3, "--out", tmp_path]) == 3
    assert "non-finite gap at length 1: a word product overflowed" in capsys.readouterr().err
    assert not (tmp_path / "certify.csv").exists()
    assert run(["certify", "builtin:sym4", "--k", 2, "--radius", 14, "--out", tmp_path]) == 3
    assert "budget" in capsys.readouterr().err


def test_entries_past_1e154_read_their_gaps(tmp_path, capsys):
    # the entries of diag(1e160, 1e-160) square past the float range, but
    # its words a^n and A^n have the finite gap 160 ln 10 a letter
    path = _one_generator_rep_file(tmp_path, np.diag([1e160, 1e-160]), {"kind": "free", "rank": 1})
    assert run(["certify", str(path), "--k", 1, "--radius", 3, "--out", tmp_path]) == 0
    assert "certified (c1=368.4136" in capsys.readouterr().out
    rows = [r.split(",") for r in (tmp_path / "certify.csv").read_text().splitlines()[2:]]
    assert [int(row[1]) for row in rows] == [1, 2, 3]
    for n, row in enumerate(rows, 1):
        assert abs(float(row[2]) - 160 * n * math.log(10)) <= 1e-12 * 160 * n * math.log(10)


def test_gap_past_the_flag_spread_limit_is_read(tmp_path, capsys):
    # the middle gap of k=2 grows by 0.01 nats a power while the spread grows
    # by 13.8: its doubling witness is read at power 256, over 3,537 nats,
    # and the certificate is inconclusive (exit 3) on a slope below 0.01
    g = np.eye(4) + 0.3 * np.random.default_rng(0).normal(size=(4, 4))
    m = g @ np.diag([1000.0, 1.01, 1 / 1.01, 1 / 1000.0]) @ np.linalg.inv(g)
    path = _one_generator_rep_file(tmp_path, m, {"kind": "free", "rank": 1})
    assert run(["certify", str(path), "--k", 2, "--radius", 6, "--out", tmp_path]) == 3
    out, err = capsys.readouterr()
    assert not err and ": inconclusive (c1=0.0" in out
    rows = [r.split(",") for r in (tmp_path / "certify.csv").read_text().splitlines()[2:]]
    rep = cli.load_rep_file(str(path))
    assert len(rows) == 6
    for n, row in enumerate(rows, 1):  # the words of length n are a^n and A^n
        want = min(_mp_middle_gap(rep.matrix(1), n), _mp_middle_gap(rep.matrix(-1), n))
        assert abs(float(row[2]) - want) <= 1e-10 * max(1.0, want)


def test_relator_overflow_exits_3(tmp_path, capsys):
    # the relator product has finite entries but an overflowing norm
    m = np.diag([1e308, 1e-308])
    path = _one_generator_rep_file(
        tmp_path, m, {"kind": "custom", "rank": 1, "relations": [[1, 1]]}
    )
    assert run(["certify", str(path), "--k", 1, "--out", tmp_path]) == 3
    assert "over/underflow" in capsys.readouterr().err


@pytest.mark.parametrize("argv,matrix,code", [
    (["certify", "{rep}", "--k", 1], [[1, 1], [1, 1]], 64),  # singular generator
    (["certify", "{rep}", "--k", 1], [[1, 1], [1, 1 + 1e-13]], 64),  # inverse residual 3e-4
    (["dimension", "builtin:directsum", "--k", 2, "--points", 50], None, 5),
    (["hyperconvex", "builtin:directsum", "--k", 2, "--assume-anosov", "--triples", 20], None, 5),
    (["visualmass", "builtin:trivial", "--k", 1, "--points", 10], None, 5),
])
def test_error_class_picks_exit_code(tmp_path, argv, matrix, code):
    # none of these computes a verdict, so none may exit 2
    if matrix is not None:
        path = _one_generator_rep_file(tmp_path, np.array(matrix, dtype=float), {"kind": "free", "rank": 1})
        argv = [str(a).format(rep=path) for a in argv]
    assert run(argv + ["--out", tmp_path]) == code


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", [fl.FlaglabError, *_subclasses(fl.FlaglabError)],
                         ids=lambda error: error.__name__)
def test_only_a_verdict_exits_2(monkeypatch, capsys, error):
    def broken():
        raise error("raised inside a command")

    monkeypatch.setattr(cli, "preset_names", broken)
    code = run(["presets"])
    assert code != 2
    if issubclass(error, fl.InputError):
        assert code == 64
    elif issubclass(error, fl.NotAnosovError):
        assert code == 5
    else:
        assert code == 3
    assert capsys.readouterr().err.endswith("error: raised inside a command\n")


def test_all_triples_skipped_exits_3(tmp_path, capsys, monkeypatch):
    # no projection base stays this far from both other points of a triple
    monkeypatch.setattr(fibers, "MIN_BASE_SEPARATION", 10.0)
    code = run([
        "hyperconvex", "builtin:sym3", "--k", 1, "--triples", 50, "--assume-anosov",
        "--out", tmp_path,
    ])
    assert code == 3
    assert "all 50 drawn triples were skipped" in capsys.readouterr().err


def test_missing_k_is_usage_error(tmp_path, capsys):
    assert run(["certify", "builtin:schottky", "--out", tmp_path]) == 64
    assert run(["certify", "--help"]) == 0


def test_unknown_preset_is_usage_error(tmp_path):
    assert run(["certify", "builtin:zzz", "--k", 1, "--out", tmp_path]) == 64


def test_malformed_rep_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 1,\n  "dim": oops\n}')
    code = run(["certify", str(bad), "--k", 1, "--out", tmp_path])
    assert code == 64
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_rep_file_roundtrip(tmp_path):
    rep = fl.preset("schottky")
    doc = {
        "format": 1,
        "dim": 2,
        "presentation": {"kind": "free", "rank": 2},
        "generators": [
            [[[m[i, j].real, m[i, j].imag] for j in range(2)] for i in range(2)]
            for m in rep.generators
        ],
        "label": "schottky-from-file",
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert run(["certify", str(path), "--k", 1, "--radius", 5, "--out", tmp_path]) == 0
    from flaglab.cli import load_rep_file

    loaded = load_rep_file(str(path))
    w = (1, 2, -1)
    assert np.allclose(loaded.evaluate(w), rep.evaluate(w), atol=1e-12)


def test_certificate_csv_schema(tmp_path):
    run(["certify", "builtin:schottky", "--k", 1, "--radius", 5, "--out", tmp_path])
    lines = (tmp_path / "certify.csv").read_text().splitlines()
    assert lines[0] == "# flaglab certificate v1"
    assert lines[1] == "k,length,min_gap,c1,c2,r2,verdict"
    assert len(lines) == 2 + 5


def test_hyperconvex_exit_codes(tmp_path):
    code = run([
        "hyperconvex", "builtin:sym3", "--k", 1, "--triples", 200,
        "--radius", 5, "--seed", 3, "--out", tmp_path,
    ])
    assert code == 0
    # direct sum: prerequisite Anosov indices are refuted -> exit 5
    code = run([
        "hyperconvex", "builtin:directsum", "--k", 2, "--triples", 50,
        "--radius", 4, "--seed", 3, "--out", tmp_path,
    ])
    assert code == 5


def test_hk_mode_matches_duality(tmp_path):
    code_hyper = run([
        "hyperconvex", "builtin:sym3", "--k", 1, "--mode", "eq1", "--triples", 200,
        "--radius", 5, "--seed", 4, "--out", tmp_path / "a",
    ])
    # property H_k of the contragredient preset is equivalent; exercised via file
    contra = contragredient(fl.preset("sym3"))
    doc = {
        "format": 1,
        "dim": 3,
        "presentation": {"kind": "free", "rank": 2},
        "generators": [
            [[[m[i, j].real, m[i, j].imag] for j in range(3)] for i in range(3)]
            for m in contra.generators
        ],
        "label": "contragredient-sym3",
    }
    path = tmp_path / "contra.json"
    path.write_text(json.dumps(doc))
    code_hk = run([
        "hyperconvex", str(path), "--k", 1, "--mode", "Hk", "--triples", 200,
        "--radius", 5, "--seed", 4, "--out", tmp_path / "b",
    ])
    assert code_hyper == code_hk == 0


def test_foliate_csv_and_svg(tmp_path):
    svg_dir = tmp_path / "svg"
    code = run([
        "foliate", "builtin:octagon-sym3", "--k", 1, "--bases", 1, "--fibers", 120,
        "--seed", 5, "--svg", svg_dir, "--out", tmp_path,
    ])
    assert code == 0
    lines = (tmp_path / "foliate.csv").read_text().splitlines()
    assert lines[0] == "# flaglab foliate v1"
    assert lines[1] == "base_word,fiber_source_word,re,im,is_infinity,base_status"
    svgs = list(svg_dir.glob("*.svg"))
    assert len(svgs) == 1
    body = svgs[0].read_text()
    assert "inf" in body  # infinity marker
    assert body.count("<line") >= 4  # crosses at 0 and 1


def test_foliate_seed_reproducibility(tmp_path):
    for sub in ("r1", "r2"):
        run([
            "foliate", "builtin:sym3", "--k", 1, "--bases", 2, "--fibers", 40,
            "--seed", 9, "--out", tmp_path / sub,
        ])
    assert (tmp_path / "r1" / "foliate.csv").read_bytes() == (
        tmp_path / "r2" / "foliate.csv"
    ).read_bytes()


def test_dimension_synthetic_exit_codes(tmp_path):
    code = run([
        "dimension", "--synthetic", "uniform", "--points", 10_000,
        "--scales", "0.554,0.37,0.277,0.185,0.139", "--seed", 2, "--out", tmp_path,
    ])
    assert code == 3
    code = run([
        "dimension", "--synthetic", "circle", "--points", 6000, "--out", tmp_path,
    ])
    assert code == 0
    lines = (tmp_path / "dimension.csv").read_text().splitlines()
    assert lines[0] == "# flaglab dimension v1"
    assert lines[1] == "scale,count,chart_id"
    assert lines[-1].startswith("summary,")


def test_dimension_grassmann_mode(tmp_path):
    code = run([
        "dimension", "builtin:octagon-sym3", "--k", 1, "--mode", "grassmann",
        "--points", 700, "--anchors", 4, "--word-length", 12, "--seed", 3,
        "--out", tmp_path,
    ])
    assert code == 0
    rows = (tmp_path / "dimension.csv").read_text().splitlines()
    assert any(row.split(",")[2].startswith("grassmann") for row in rows[2:-1])
    slope = float(rows[-1].split(",")[1])
    assert abs(slope - 1.0) <= 0.2


def test_dimension_grassmann_anchor_doubling(tmp_path, monkeypatch):
    # one anchor covers too little, so the anchors double twice; the cloud
    # must stay the same 700 flags and never take in an anchor
    passes = []
    original = cli.grassmann_charts

    def recording(cloud, k, anchors):
        passes.append((cloud.sources, anchors.sources))
        return original(cloud, k, anchors)

    monkeypatch.setattr(cli, "grassmann_charts", recording)
    code = run([
        "dimension", "builtin:octagon-sym3", "--k", 1, "--mode", "grassmann",
        "--points", 700, "--anchors", 1, "--word-length", 12, "--seed", 3,
        "--out", tmp_path,
    ])
    assert code == 0
    assert [len(a) for _, a in passes] == [1, 2, 4]
    for cloud, anchors in passes:
        assert cloud == passes[0][0] and len(set(cloud)) == 700
        assert not set(cloud) & set(anchors)


def test_dimension_grassmann_uncovered_is_input_error(tmp_path, capsys, monkeypatch):
    # a chart floor no anchor can meet for every flag: doubling stops at 4x
    monkeypatch.setattr(fibers, "CHART_FLOOR", 0.9)
    code = run([
        "dimension", "builtin:octagon-sym3", "--k", 1, "--mode", "grassmann",
        "--points", 300, "--anchors", 1, "--word-length", 12, "--seed", 3,
        "--out", tmp_path,
    ])
    assert code == 64
    err = capsys.readouterr().err
    assert "flags covered by none of 4 charts" in err


def test_dimension_requires_input(tmp_path):
    assert run(["dimension", "--out", tmp_path]) == 64


_IDENTITY = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_SURFACE = {
    "format": 1, "dim": 2, "presentation": {"kind": "surface", "genus": 1},
    "generators": [_IDENTITY, _IDENTITY],
}


@pytest.mark.parametrize("argv,doc", [
    (["visualmass"], None),
    (["visualmass", "--synthetic", "hemisphere", "--basepoint", "0,0"], None),
    (["visualmass", "--synthetic", "hemisphere", "--basepoint", "a,b,c"], None),
    (["visualmass", "--synthetic", "hemisphere", "--basepoint", "0,0,nan"], None),
    (["dimension", "--synthetic", "circle", "--scales", "a,b"], None),
    (["crossratio", "0", "1", "abc", "inf"], None),
    (["replay", "{dir}/missing.manifest.json"], None),
    (["certify", "{rep}", "--k", 1],
     {**_SURFACE, "presentation": {**_SURFACE["presentation"], "relations": []}}),
    (["certify", "{rep}", "--k", 1],
     {**_SURFACE, "presentation": {**_SURFACE["presentation"], "relations": [[1, 2, -1, -2]] * 2}}),
    (["certify", "{rep}", "--k", 1],
     {"format": 1, "dim": 1, "presentation": {"kind": "free", "rank": 1}, "generators": [[[[1]]]]}),
    (["certify", "{rep}", "--k", 1], [1, 2]),
    (["dimension", "builtin:sym3", "--k", 0], None),
    (["dimension", "builtin:sym3", "--k", 3], None),
    (["visualmass", "builtin:sym3", "--k", 0], None),
    (["visualmass", "builtin:sym3", "--k", 3], None),
    (["dimension", "builtin:sym3", "--points", 0], None),
    (["visualmass", "builtin:sym3", "--points", 0], None),
    (["foliate", "builtin:sym3", "--k", 1, "--fibers", 0], None),
    (["foliate", "builtin:sym3", "--k", 1, "--bases", 0], None),
    (["hyperconvex", "builtin:sym4", "--k", 2, "--pool", 2, "--assume-anosov"], None),
    (["visualmass", "builtin:sym3", "--k", 1, "--eps", "inf"], None),
    (["visualmass", "builtin:sym3", "--k", 1, "--eps", "nan"], None),
    (["visualmass", "builtin:sym3", "--k", 1, "--eps", 4], None),
    (["hyperconvex", "builtin:sym3", "--k", 1, "--tau", "nan"], None),
    (["hyperconvex", "builtin:sym3", "--k", 1, "--tau", -1], None),
    (["certify", "builtin:sym3", "--k", 1, "--slope-threshold", "nan"], None),
    (["certify", "builtin:sym3", "--k", 1, "--r2-threshold", "nan"], None),
    (["hyperconvex", "builtin:sym3", "--k", 1, "--triples", 0, "--assume-anosov"], None),
    (["dimension", "builtin:octagon-sym3", "--mode", "grassmann", "--anchors", 0], None),
    (["dimension", "builtin:sym3", "--word-length", 0, "--points", 1000], None),
    (["hyperconvex", "builtin:sym4", "--k", 2, "--word-length", 0, "--assume-anosov"], None),
    (["hyperconvex", "builtin:sym4", "--k", 2, "--word-length", 1, "--pool", 3,
      "--assume-anosov", "--triples", 10], None),
    (["foliate", "builtin:sym3", "--k", 1, "--word-length", -3], None),
])
def test_malformed_input_exits_64(tmp_path, capsys, monkeypatch, argv, doc):
    monkeypatch.chdir(tmp_path)  # the default --out
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert run([str(a).format(rep=path, dir=tmp_path) for a in argv]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(("input error: ", "error: "))


@pytest.mark.parametrize("argv", [
    ["hyperconvex", "builtin:sym4", "--k", 2],
    ["foliate", "builtin:sym3", "--k", 1],
    ["dimension", "--synthetic", "uniform"],
    ["visualmass", "--synthetic", "hemisphere"],
])
def test_negative_seed_exits_64(tmp_path, capsys, argv):
    # NumPy's SeedSequence rejects a negative seed: the parser does first
    assert run(argv + ["--seed", -1, "--out", tmp_path]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: argument --seed: must be >= 0, got -1")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["circle", "cantor", "uniform"])
@pytest.mark.parametrize("points", [0, -3])
def test_synthetic_points_below_one_exit_64(tmp_path, capsys, kind, points):
    assert run(["dimension", "--synthetic", kind, "--points", points, "--out", tmp_path]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"input error: argument --points: must be >= 1, got {points}")


def test_foliate_k_out_of_range_message(tmp_path, capsys):
    assert run(["foliate", "builtin:sym3", "--k", 0, "--out", tmp_path]) == 64
    assert capsys.readouterr().err == "input error: k=0 out of range 1..2\n"


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1) == fl.__version__


def test_crossratio_cli(capsys):
    assert run(["crossratio", "0", "1", "2+3j", "inf"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "2+3j"
    assert run(["crossratio", "0", "1", "5", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "5+0j"


def test_visualmass_hemisphere(tmp_path, capsys):
    code = run([
        "visualmass", "--synthetic", "hemisphere", "--mc", 40_000, "--seed", 7,
        "--out", tmp_path,
    ])
    assert code == 0
    est = float((tmp_path / "visualmass.csv").read_text().splitlines()[2].split(",")[0])
    assert abs(est - 0.5) < 0.01


def test_presets_listing(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out
    assert "schottky" in out and "octagon" in out


def test_replay_reproduces_bytes(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    run([
        "foliate", "builtin:sym3", "--k", 1, "--bases", 1, "--fibers", 30,
        "--seed", 11, "--out", first,
    ])
    code = run(["replay", str(first / "foliate.manifest.json"), "--out", second])
    assert code == 0
    assert (first / "foliate.csv").read_bytes() == (second / "foliate.csv").read_bytes()


def test_replay_writes_svgs_under_its_own_out(tmp_path):
    # the recorded --svg directory is taken by name under replay's --out:
    # the replayed run's SVGs stay as they were, to the modification time
    svg = tmp_path / "svg"
    argv = ["foliate", "builtin:sym3", "--k", 1, "--bases", 3, "--fibers", 300, "--seed", 4]
    assert run(argv + ["--svg", svg, "--out", tmp_path / "first"]) == 0
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in svg.glob("*.svg")}
    assert len(before) == 3
    code = run(["replay", tmp_path / "first" / "foliate.manifest.json", "--out", tmp_path / "second"])
    assert code == 0
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in svg.glob("*.svg")} == before
    replayed = tmp_path / "second" / "svg"
    assert {p.name: p.read_bytes() for p in replayed.glob("*.svg")} == {
        name: body for name, (body, _) in before.items()
    }
    manifest = json.loads((tmp_path / "second" / "foliate.manifest.json").read_text())
    assert all(Path(p).parent in (tmp_path / "second", replayed) for p in manifest["outputs"])


def test_replay_passes_values_that_start_with_a_dash(tmp_path):
    # "--basepoint -0.5,0,2" would read the value as an option
    argv = ["visualmass", "--synthetic", "hemisphere", "--mc", 1000, "--basepoint=-0.5,0,2"]
    assert run(argv + ["--out", tmp_path / "first"]) == 0
    manifest = tmp_path / "first" / "visualmass.manifest.json"
    assert run(["replay", manifest, "--out", tmp_path / "second"]) == 0
    assert (tmp_path / "first" / "visualmass.csv").read_bytes() == (
        tmp_path / "second" / "visualmass.csv"
    ).read_bytes()


def test_json_format_matches_csv_and_replays(tmp_path):
    argv = ["certify", "builtin:schottky", "--k", 1, "--radius", 4]
    assert run(argv + ["--out", tmp_path / "csv"]) == 0
    assert run(argv + ["--format", "json", "--out", tmp_path / "json"]) == 0
    lines = (tmp_path / "csv" / "certify.csv").read_text().splitlines()
    assert lines[0].startswith("# ")
    columns = lines[1].split(",")
    csv_rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
    doc = json.loads((tmp_path / "json" / "certify.json").read_text())
    assert doc["schema"] == lines[0][2:]
    assert doc["rows"] == csv_rows and len(csv_rows) == 4
    manifest = tmp_path / "json" / "certify.manifest.json"
    assert run(["replay", manifest, "--out", tmp_path / "replay"]) == 0
    assert (tmp_path / "replay" / "certify.json").read_bytes() == (
        tmp_path / "json" / "certify.json"
    ).read_bytes()


def test_manifest_contents(tmp_path):
    run(["certify", "builtin:schottky", "--k", 1, "--radius", 5, "--out", tmp_path])
    manifest = json.loads((tmp_path / "certify.manifest.json").read_text())
    assert manifest["command"] == "certify"
    assert manifest["params"]["k"] == 1
    assert manifest["inputs"]["rep"] == "builtin:schottky"
    assert "wall_time_s" in manifest
    assert manifest["version"] == fl.__version__


MANIFEST_KEYS = {"command", "digests", "inputs", "numpy", "outputs", "params", "results", "seeds",
                 "version", "wall_time_s"}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("argv,seeds", [
    (["certify", "builtin:schottky", "--k", 1, "--radius", 4], []),  # certify takes no --seed
    (["hyperconvex", "builtin:sym3", "--k", 1, "--triples", 100, "--assume-anosov"], [1]),
    (["foliate", "builtin:sym3", "--k", 1, "--bases", 2, "--fibers", 30, "--svg", "{dir}/svg"], [1]),
    (["dimension", "--synthetic", "circle", "--points", 2000, "--seed", 4], [4]),
    (["dimension", "builtin:sym3", "--k", 1, "--points", 1000], [1]),
    (["visualmass", "--synthetic", "hemisphere", "--mc", 1000, "--seed", 3], [3]),
    (["visualmass", "builtin:sym3", "--k", 1, "--points", 300, "--mc", 1000], [1]),
    # no output, so no manifest
    (["crossratio", "0", "1", "2", "inf"], None),
    (["presets"], None),
], ids=["certify", "hyperconvex", "foliate-svg", "dimension-synthetic", "dimension-rep",
        "visualmass-synthetic", "visualmass-rep", "crossratio", "presets"])
def test_every_manifest_is_one_run_record(tmp_path, monkeypatch, argv, seeds):
    monkeypatch.chdir(tmp_path)  # the default --out
    argv = [str(a).format(dir=tmp_path) for a in argv]
    if seeds is None:
        assert run(argv) == 0
        assert not list(tmp_path.iterdir())
        return
    assert run(argv + ["--out", tmp_path / "a"]) == 0
    manifest = json.loads((tmp_path / "a" / f"{argv[0]}.manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["seeds"] == seeds
    assert (manifest["version"], manifest["numpy"]) == (fl.__version__, np.__version__)
    assert list(manifest["digests"]) == sorted(manifest["outputs"])
    assert all(_sha256(path) == digest for path, digest in manifest["digests"].items())
    # a replay writes the recorded bytes, and only the replayed run's manifest
    assert run(["replay", tmp_path / "a" / f"{argv[0]}.manifest.json", "--out", tmp_path / "b"]) == 0
    table = f"{argv[0]}.csv"
    assert _sha256(tmp_path / "b" / table) == manifest["digests"][str(tmp_path / "a" / table)]
    replayed = json.loads((tmp_path / "b" / f"{argv[0]}.manifest.json").read_text())
    assert sorted(replayed["digests"].values()) == sorted(manifest["digests"].values())
    assert [p.name for p in tmp_path.rglob("*.manifest.json")] == [f"{argv[0]}.manifest.json"] * 2


def test_replay_names_a_version_mismatch(tmp_path, capsys):
    assert run(["certify", "builtin:schottky", "--k", 1, "--radius", 4, "--out", tmp_path / "a"]) == 0
    path = tmp_path / "a" / "certify.manifest.json"
    capsys.readouterr()
    assert run(["replay", path, "--out", tmp_path / "b"]) == 0
    same = capsys.readouterr().out
    assert not same.startswith("note: ")
    manifest = json.loads(path.read_text())
    manifest["version"] = "0.11.0"
    path.write_text(json.dumps(manifest))
    assert run(["replay", path, "--out", tmp_path / "c"]) == 0
    note, rest = capsys.readouterr().out.split("\n", 1)
    assert note.startswith("note: ") and "0.11.0" in note and fl.__version__ in note
    assert "README" in note
    assert rest == same
    assert (tmp_path / "c" / "certify.csv").read_bytes() == (tmp_path / "a" / "certify.csv").read_bytes()


def test_replay_refuses_an_edited_representation_file(tmp_path, capsys):
    # the manifest records the file's digest: the file as it was replays its
    # bytes, an edited one is refused (64) before anything is written
    path = _one_generator_rep_file(tmp_path, np.diag([2.0, 0.5]), {"kind": "free", "rank": 1})
    assert run(["certify", path, "--k", 1, "--radius", 4, "--out", tmp_path / "a"]) == 0
    manifest = tmp_path / "a" / "certify.manifest.json"
    was = json.loads(manifest.read_text())["inputs"]["rep"].rsplit(":", 1)[1]
    assert run(["replay", manifest, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "b" / "certify.csv").read_bytes() == (tmp_path / "a" / "certify.csv").read_bytes()
    _one_generator_rep_file(tmp_path, np.diag([3.0, 1 / 3]), {"kind": "free", "rank": 1})
    capsys.readouterr()
    assert run(["replay", manifest, "--out", tmp_path / "c"]) == 64
    err = capsys.readouterr().err
    now = cli.resolve_rep(str(path))[1].rsplit(":", 1)[1]
    assert now != was and was in err and now in err
    assert list((tmp_path / "c").iterdir()) == []


def test_wall_time_ignores_a_clock_reset(tmp_path, monkeypatch):
    # the system clock is set back an hour each time it is read
    clock = itertools.count(0.0, -3600.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    assert run(["certify", "builtin:schottky", "--k", 1, "--radius", 4, "--out", tmp_path]) == 0
    manifest = json.loads((tmp_path / "certify.manifest.json").read_text())
    assert 0 <= manifest["wall_time_s"] < 60


def test_hyperconvex_manifest_counts_skips_by_reason(tmp_path):
    argv = ["hyperconvex", "builtin:sym3", "--k", 1, "--triples", 300, "--assume-anosov"]
    assert run(argv + ["--out", tmp_path / "a"]) == 0
    lines = (tmp_path / "a" / "hyperconvex.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    manifest = json.loads((tmp_path / "a" / "hyperconvex.manifest.json").read_text())
    reasons = manifest["results"]["skip_reasons"]
    assert set(reasons) == set(fibers.SKIP_REASONS)
    assert sum(reasons.values()) == int(row["skipped"]) > 0
    # the counts live in the manifest only: the CSV keeps its columns and replays
    assert run(["replay", tmp_path / "a" / "hyperconvex.manifest.json", "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "b" / "hyperconvex.csv").read_bytes() == (
        tmp_path / "a" / "hyperconvex.csv"
    ).read_bytes()


@pytest.mark.parametrize("argv,calls", [
    (["dimension", "builtin:octagon-sym3", "--k", 1, "--points", 1000, "--word-length", 10], 1),
    # one anchor covers too little: the anchors are sampled twice more
    (["dimension", "builtin:octagon-sym3", "--k", 1, "--mode", "grassmann", "--points", 700,
      "--anchors", 1, "--word-length", 12, "--seed", 3], 3),
    (["visualmass", "builtin:sym3", "--k", 1, "--points", 300, "--mc", 1000], 1),
    (["foliate", "builtin:sym3", "--k", 1, "--fibers", 50], 1),
    (["hyperconvex", "builtin:sym3", "--k", 1, "--triples", 100, "--assume-anosov"], 1),
])
def test_manifests_count_sampler_failures_by_reason(tmp_path, monkeypatch, argv, calls):
    # every limit-set sample reports one failure of each reason beside its
    # real ones (none on these presets): the manifest counts them all, and
    # the CSV still replays byte for byte
    real = certify.limit_set_sample

    def failing(*args, **kwargs):
        flags, failures = real(*args, **kwargs)
        return flags, failures + list(certify.FAILURE_REASONS)

    assert run(argv + ["--out", tmp_path / "plain"]) == 0
    monkeypatch.setattr(cli, "limit_set_sample", failing)
    monkeypatch.setattr(fibers, "limit_set_sample", failing)
    assert run(argv + ["--out", tmp_path / "a"]) == 0
    manifest = json.loads((tmp_path / "a" / f"{argv[0]}.manifest.json").read_text())
    assert manifest["results"]["sample_failures"] == dict.fromkeys(certify.FAILURE_REASONS, calls)
    csv = f"{argv[0]}.csv"
    assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "plain" / csv).read_bytes()
    plain = json.loads((tmp_path / "plain" / f"{argv[0]}.manifest.json").read_text())
    assert plain["results"]["sample_failures"] == dict.fromkeys(certify.FAILURE_REASONS, 0)


@pytest.mark.parametrize("argv", [
    ["dimension", "--synthetic", "cantor", "--points", 4097],  # 8192 points of 256 bytes
    ["dimension", "--synthetic", "circle", "--points", 4097],
    ["dimension", "--synthetic", "uniform", "--points", 4097],
    ["dimension", "builtin:sym3", "--points", 400],  # 401 words of 1024 + 256 * 9 bytes
    ["dimension", "builtin:sym3", "--mode", "grassmann", "--points", 400],
    ["visualmass", "builtin:sym3", "--points", 400, "--mc", 1000],
    ["visualmass", "--synthetic", "hemisphere", "--mc", 8193],  # 128 bytes a sample
    ["dimension", "builtin:sym3", "--points", 100, "--word-length", 1000],  # 40 bytes a letter
    ["foliate", "builtin:sym3", "--k", 1, "--fibers", 400],
    ["foliate", "builtin:sym3", "--k", 1, "--bases", 50, "--fibers", 50],  # 512 bytes a fiber row
    ["hyperconvex", "builtin:sym4", "--k", 2, "--pool", 300, "--triples", 1],
    ["hyperconvex", "builtin:sym4", "--k", 2, "--pool", 3, "--triples", 2000],  # 75 pairs
])
def test_user_sized_arrays_fail_fast_past_the_budget(tmp_path, capsys, monkeypatch, argv):
    # a 1 MiB budget: each run is refused before it allocates, samples or
    # sweeps, by the cli for its own arrays and by the library for the rest
    monkeypatch.setattr(certify, "SWEEP_BUDGET", 1 << 20)
    for module, name in ((cli, "boxdim"), (cli, "visual_mass"), (certify, "boundary_samples"),
                         (fibers, "boundary_samples"), (fibers, "certificates")):
        monkeypatch.setattr(module, name, None)
    assert run(argv + ["--out", tmp_path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith("the budget is 1 MiB")
    assert not list(tmp_path.iterdir())


def test_budget_admits_what_fits(tmp_path, monkeypatch):
    monkeypatch.setattr(certify, "SWEEP_BUDGET", 1 << 20)
    assert run(["dimension", "--synthetic", "cantor", "--points", 4096, "--out", tmp_path]) == 0
    assert run(["visualmass", "--synthetic", "hemisphere", "--mc", 8192, "--out", tmp_path]) == 0
    assert run(["visualmass", "builtin:sym3", "--points", 300, "--mc", 1000, "--out", tmp_path]) == 0


def test_one_budget_binding_bounds_every_array(tmp_path, capsys, monkeypatch):
    # certify.SWEEP_BUDGET alone, read at call time, refuses a sweep, a
    # sampler, a synthetic cloud and the Monte Carlo sample
    monkeypatch.setattr(certify, "SWEEP_BUDGET", 1 << 20)
    for i, argv in enumerate([
        ["certify", "builtin:sym4", "--k", 2, "--radius", 8],  # its sweep holds 5.8 MiB at once
        ["dimension", "builtin:sym3", "--points", 400],
        ["dimension", "--synthetic", "uniform", "--points", 5000],
        ["visualmass", "--synthetic", "hemisphere", "--mc", 8193],
    ]):
        assert run(argv + ["--out", tmp_path / str(i)]) == 3
        assert capsys.readouterr().err.endswith("the budget is 1 MiB\n")
        assert not list((tmp_path / str(i)).iterdir())
    # foliate draws bases + fibers + 8 flags: refused at the charge of
    # bases + fibers words, admitted at its own
    word = 768 + 256 * 9 + 40 * 8
    argv = ["foliate", "builtin:sym3", "--k", 1, "--fibers", 400]
    monkeypatch.setattr(certify, "SWEEP_BUDGET", 401 * word)
    assert run(argv + ["--out", tmp_path / "refused"]) == 3
    assert "a sample of 409 flags needs" in capsys.readouterr().err
    assert not list((tmp_path / "refused").iterdir())
    monkeypatch.setattr(certify, "SWEEP_BUDGET", 409 * word)
    assert run(argv + ["--out", tmp_path / "admitted"]) == 0


@pytest.mark.parametrize("argv,count,row_bytes", [
    (["dimension", "--synthetic", "cantor", "--points", 65536], 65536, 256),
    (["dimension", "--synthetic", "circle", "--points", 65536], 65536, 256),
    (["dimension", "--synthetic", "uniform", "--points", 65536], 65536, 256),
    (["visualmass", "--synthetic", "hemisphere", "--mc", 131072], 131072, 128),
    (["visualmass", "--synthetic", "hemisphere", "--mc", 131072, "--basepoint", "0.5,0,2"], 131072, 128),
])
def test_synthetic_runs_peak_under_the_budget_they_just_fit(tmp_path, monkeypatch, argv, count, row_bytes):
    # the per-point charge of a synthetic cloud covers its traced peak, the
    # run's fixed costs included
    monkeypatch.setattr(certify, "SWEEP_BUDGET", count * row_bytes)
    tracemalloc.start()
    try:
        code = run(argv + ["--out", tmp_path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 3) and (tmp_path / f"{argv[0]}.csv").exists()
    assert peak < count * row_bytes


@pytest.mark.parametrize("argv", [["dimension"], ["visualmass", "--mc", 1000]])
def test_fiber_base_without_a_frame_reports_its_cause(tmp_path, capsys, monkeypatch, sym3_flags, argv):
    # a base whose first two columns coincide has no fiber frame: the run
    # exits 3 with tangent_project's own message, and writes nothing
    bad = certify.FlagStack([(9, 9, 9)], np.eye(3)[None][..., [0, 0, 2]], [1, 2], [0.0])
    monkeypatch.setattr(cli, "limit_set_sample", lambda *args: (certify.FlagStack.concat(bad, sym3_flags), []))
    assert run(argv + ["builtin:sym3", "--k", 1, "--points", len(sym3_flags), "--out", tmp_path]) == 3
    assert capsys.readouterr().err == "error: fiber frame at k=1 is not 2-dimensional\n"
    assert not list(tmp_path.iterdir())


def test_visualmass_mc_below_1000_is_refused_before_sampling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "limit_set_sample", None)
    assert run(["visualmass", "builtin:sym3", "--mc", 500, "--out", tmp_path]) == 64
    assert capsys.readouterr().err.startswith("input error: argument --mc: must be >= 1000, got 500")
    assert not list(tmp_path.iterdir())
