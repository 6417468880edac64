import json

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from cone_oracle import cone_evidence
from conecert.cli import main
from conecert.exposedness import certify_exposed
from conecert.maps import apply, choi_from_ad
from conecert.serialization import (
    REPORT_SCHEMA,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_dict,
)
from test_maps import cho_kye_lee

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def dump(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def identity_map_file(tmp_path, name="map.json"):
    return dump(tmp_path / name, map_to_json("ad", A=np.eye(2)))


def test_pairing_product_pinned(tmp_path, capsys):
    m = identity_map_file(tmp_path)
    op = dump(tmp_path / "op.json", {"kind": "product", "x": matrix_to_json(E11),
                                     "y": matrix_to_json(E11)})
    assert main(["pairing", m, op]) == 0
    assert capsys.readouterr().out.strip() == "1.0 + 0.0i"
    op2 = dump(tmp_path / "op2.json", {"kind": "product", "x": matrix_to_json(E11),
                                       "y": matrix_to_json(E22)})
    assert main(["pairing", m, op2]) == 0
    assert capsys.readouterr().out.strip() == "0.0 + 0.0i"


def test_pairing_full_kind_inferred(tmp_path, capsys):
    m = identity_map_file(tmp_path)
    op = dump(tmp_path / "op.json", {"w": matrix_to_json(np.eye(4))})
    assert main(["pairing", m, op]) == 0
    assert capsys.readouterr().out.strip() == "2.0 + 0.0i"


def test_pairing_bad_operator_exit_2(tmp_path, capsys):
    m = identity_map_file(tmp_path)
    op = dump(tmp_path / "op.json", {"kind": "diagonal"})
    assert main(["pairing", m, op]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"kind": "product", "x": matrix_to_json(E11)},
    {"kind": "full"},
])
def test_pairing_malformed_operator_exit_2(tmp_path, capsys, obj):
    """an operator file that is not an object, or lacks a factor or W, is an input error"""
    m = identity_map_file(tmp_path)
    assert main(["pairing", m, dump(tmp_path / "op.json", obj)]) == 2
    assert "error:" in capsys.readouterr().err


def test_boolean_sizes_exit_2(tmp_path, capsys):
    """`true` is not a size: a matrix with rows true and a choi map with n true are input
    errors (exit 2), not a TypeError"""
    a = {"rows": True, "cols": 2, "data": [[[1, 0], [0, 0]]]}
    assert main(["expose", dump(tmp_path / "a.json", a)]) == 2
    assert "error: rows must be a positive integer" in capsys.readouterr().err
    choi = {"kind": "choi", "n": True, "m": 1, "choi": matrix_to_json(np.eye(1))}
    assert main(["classify", dump(tmp_path / "c.json", choi)]) == 2
    assert "error: n must be a positive integer" in capsys.readouterr().err


def test_expose_identity(tmp_path, capsys):
    a = dump(tmp_path / "a.json", matrix_to_json(np.eye(2)))
    report = tmp_path / "report.json"
    code = main(["expose", a, "--report", str(report), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: EXPOSED_LINEAR" in out
    assert "nullspace dim: 1" in out
    payload = json.loads(report.read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert "seed" not in payload and "seed" not in payload["config"]
    assert payload["config"]["transposed"] is False
    assert "wall_time_ms" not in payload


def test_expose_transposed_rank_one(tmp_path, capsys):
    a = dump(tmp_path / "a.json", matrix_to_json(np.diag([1.0, 0.0])))
    report = tmp_path / "report.json"
    code = main(["expose", a, "--transposed", "--report", str(report)])
    assert code == 0
    assert "verdict: EXPOSED_FACE" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["nullspace_dim"] == 3
    assert 0.0 <= payload["face"]["defect"] <= payload["face"]["bound"] < 1e-12
    assert "wall_time_ms" in payload
    # the same run through the API, and the sampled cross-check on its hull
    api = certify_exposed(np.diag([1.0, 0.0]), transposed=True)
    assert report_to_dict(api, include_timing=False) == {
        k: v for k, v in payload.items() if k not in ("config", "wall_time_ms")
    }
    ev = cone_evidence(api.nullspace, choi_from_ad(np.diag([1.0, 0.0]), transposed=True))
    assert ev.control_positive and ev.misses == []


@pytest.mark.parametrize("flag, value", [
    ("--rel-eps", "nan"), ("--rel-eps", "-1"), ("--rel-eps", "inf"),
    ("--abs-floor", "nan"), ("--abs-floor", "-1e-14"), ("--abs-floor", "-inf"),
])
def test_expose_bad_tolerance_exit_2(tmp_path, capsys, flag, value):
    """ranks come from spectral gaps, so expose, sweep and obstruction take no
    cutoff flag: any is a usage error (exit 2) and writes no report"""
    a = dump(tmp_path / "a.json", matrix_to_json(np.eye(2)))
    report, out_dir = tmp_path / "out.json", tmp_path / "sweep"
    for argv in (
        ["expose", a, "--report", str(report)],
        ["sweep", "--n", "2", "--m", "2", "--count", "1", "--report", str(out_dir)],
        ["obstruction", a, "--report", str(report)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not report.exists() and not out_dir.exists()


def test_reports_carry_no_tolerances(tmp_path, capsys):
    """a zero cutoff is refused like any other, and no report, config or summary names tolerances"""
    a = dump(tmp_path / "a.json", matrix_to_json(np.eye(2)))
    for flag in ("--rel-eps", "--abs-floor"):
        with pytest.raises(SystemExit) as exc:
            main(["expose", a, flag, "0"])
        assert exc.value.code == 2
    report, out_dir = tmp_path / "report.json", tmp_path / "sweep"
    assert main(["expose", a, "--report", str(report)]) == 0
    assert main(["sweep", "--n", "2", "--m", "2", "--count", "1",
                 "--report", str(out_dir)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    summary = json.loads((out_dir / "summary.json").read_text())
    swept = json.loads((out_dir / summary["reports"][0]).read_text())
    for obj in (payload, payload["config"], summary["config"], swept, swept["config"]):
        assert "tolerances" not in obj
    assert "tolerances" not in REPORT_SCHEMA["properties"]
    assert "tolerances" not in REPORT_SCHEMA["required"]


def test_expose_zero_matrix_exit_2(tmp_path, capsys):
    a = dump(tmp_path / "a.json", matrix_to_json(np.zeros((2, 2))))
    assert main(["expose", a]) == 2
    assert "INPUT_REJECTED" in capsys.readouterr().out


def test_expose_missing_file_exit_2(tmp_path, capsys):
    assert main(["expose", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content, error", [
    (b'{"rows": 1, "cols": 1, "data": [[[1' + b"0" * 400 + b', 0]]]}', "entry out of the range"),
    (b"\xff\xfe[1, 2]", "cannot read JSON"),
    (b"[" * 100_000 + b"]" * 100_000, "cannot read JSON"),
], ids=["entry_1e400", "not_utf8", "deep"])
def test_expose_unreadable_input_exit_2(tmp_path, capsys, content, error):
    """an entry 10^400, which no double holds, a file that is not UTF-8 and JSON nested past
    the recursion limit are input errors (exit 2), not tracebacks"""
    path = tmp_path / "a.json"
    path.write_bytes(content)
    assert main(["expose", str(path)]) == 2
    assert f"error: {error}" in capsys.readouterr().err


def test_expose_takes_no_seed(tmp_path, monkeypatch, capsys):
    """the certificate draws no random number: --seed is a usage error and
    CONECERT_SEED is not read"""
    a = dump(tmp_path / "a.json", matrix_to_json(np.eye(2)))
    with pytest.raises(SystemExit) as exc:
        main(["expose", a, "--seed", "3"])
    assert exc.value.code == 2
    monkeypatch.setenv("CONECERT_SEED", "alpha")
    assert main(["expose", a]) == 0
    capsys.readouterr()


def test_classify_ad(tmp_path, capsys):
    m = dump(tmp_path / "m.json", map_to_json("ad", A=np.array([[1.0, 2.0], [0.5, 1j]])))
    out_file = tmp_path / "cls.json"
    assert main(["classify", m, "--report", str(out_file)]) == 0
    assert capsys.readouterr().out.strip() == "case: AD"
    payload = json.loads(out_file.read_text())
    assert payload["case"] == "AD"
    assert payload["b"]["rows"] == 2


def test_classify_unclassifiable_exit_3(tmp_path, capsys):
    m = dump(tmp_path / "m.json",
             map_to_json("choi", n=2, m=2, choi=np.kron(np.eye(2), np.eye(2))))
    assert main(["classify", m]) == 3
    assert "error:" in capsys.readouterr().err


def test_positivity_positive(tmp_path, capsys):
    m = identity_map_file(tmp_path)
    assert main(["positivity", m, "--seed", "1"]) == 0
    assert "verdict: POSITIVE_EVIDENCE" in capsys.readouterr().out


def test_positivity_bad_budget_exit_2(tmp_path, capsys):
    """a negative restart count or no iterations is a usage error, before any search"""
    m = identity_map_file(tmp_path)
    assert main(["positivity", m, "--restarts", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["positivity", m, "--iters", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    # no random restarts: the informed starts alone still give a verdict
    assert main(["positivity", m, "--restarts", "0"]) == 0
    assert "verdict: POSITIVE_EVIDENCE" in capsys.readouterr().out


def test_positivity_restarts_used(tmp_path, capsys):
    """a CP map is settled by its Choi spectrum with one descent; Choi's map,
    positive but neither CP nor co-CP, scans every informed and random start"""
    report = tmp_path / "pos.json"
    assert main(["positivity", identity_map_file(tmp_path), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["restarts_used"] == 1
    choi_map = cho_kye_lee(2, 0, 1)
    m = dump(tmp_path / "choi.json", map_to_json("choi", n=3, m=3, choi=choi_map.choi))
    assert main(["positivity", m, "--report", str(report)]) == 0
    assert "verdict: POSITIVE_EVIDENCE" in capsys.readouterr().out
    assert json.loads(report.read_text())["restarts_used"] == 5 + 64


def test_positivity_negative_exit_3(tmp_path, capsys):
    m = dump(tmp_path / "m.json",
             map_to_json("choi", n=2, m=2, choi=np.diag([1.0, 0.0, 0.0, -1.0])))
    report = tmp_path / "pos.json"
    assert main(["positivity", m, "--report", str(report)]) == 3
    assert "verdict: NOT_POSITIVE" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert abs(payload["min_value"] + 1.0) < 1e-6
    assert payload["xi"]["dim"] == 2


def test_obstruction(tmp_path, capsys):
    a = dump(tmp_path / "a.json", matrix_to_json(np.diag([1.0, 0.0])))
    report = tmp_path / "obs.json"
    assert main(["obstruction", a, "--report", str(report)]) == 0
    assert capsys.readouterr().out.strip() == "solution dim: 1"
    payload = json.loads(report.read_text())
    assert payload["dim"] == 1
    assert len(payload["basis"]) == 1


def test_obstruction_reports_are_reproducible(tmp_path, capsys):
    """two obstruction runs on one rank-1 input write byte-identical reports: the basis u_0 v_0^T
    and the spectrum are read off one svd and a cached core, with no random number"""
    gen = np.random.default_rng(7)
    a = np.outer(gen.standard_normal(3) + 1j * gen.standard_normal(3), gen.standard_normal(4))
    a = dump(tmp_path / "a.json", matrix_to_json(a))
    reports = [tmp_path / "one.json", tmp_path / "two.json"]
    for report in reports:
        assert main(["obstruction", a, "--report", str(report)]) == 0
        assert capsys.readouterr().out.strip() == "solution dim: 1"
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_obstruction_reads_the_class_rank_of_expose(tmp_path, capsys):
    """diag(1, 1e-10, 0) has rank 2: the obstruction space is 0 and the map certifies"""
    a = dump(tmp_path / "a.json", matrix_to_json(np.diag([1.0, 1e-10, 0.0])))
    assert main(["obstruction", a]) == 0
    assert capsys.readouterr().out.strip() == "solution dim: 0"
    assert main(["expose", a]) == 0


def test_random_map_round_trip(tmp_path, capsys):
    out = tmp_path / "rand.json"
    assert main(["random-map", "--kind", "ad", "--n", "2", "--m", "3",
                 "--rank", "1", "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    rep = map_from_json(json.loads(out.read_text()))
    assert (rep.n, rep.m) == (2, 3)
    # rank-1 A gives a rank-1 image on the identity
    img = apply(rep, np.eye(3))
    s = np.linalg.svd(img, compute_uv=False)
    assert s[1] < 1e-10 * s[0]

    out_q = tmp_path / "randq.json"
    assert main(["random-map", "--kind", "omega_q", "--n", "3", "--m", "2",
                 "--seed", "6", "--out", str(out_q)]) == 0
    capsys.readouterr()
    rep_q = map_from_json(json.loads(out_q.read_text()))
    assert (rep_q.n, rep_q.m) == (3, 2)


def test_random_map_env_seed(tmp_path, monkeypatch, capsys):
    """CONECERT_SEED=17 draws the same map as --seed 17, and a non-integer is exit 2"""
    monkeypatch.delenv("CONECERT_SEED", raising=False)
    args = ["random-map", "--n", "2", "--m", "3"]
    flag, env, default = (tmp_path / f"{k}.json" for k in ("flag", "env", "default"))
    assert main(args + ["--seed", "17", "--out", str(flag)]) == 0
    assert main(args + ["--out", str(default)]) == 0
    monkeypatch.setenv("CONECERT_SEED", "17")
    assert main(args + ["--out", str(env)]) == 0
    assert env.read_bytes() == flag.read_bytes() != default.read_bytes()
    monkeypatch.setenv("CONECERT_SEED", "alpha")
    bad = tmp_path / "bad.json"
    assert main(args + ["--out", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not bad.exists()


@pytest.mark.parametrize("command, seed", [
    ("positivity", "-1"), ("random-map", "-1"), ("sweep", "-3"),
])
def test_negative_seed_exit_2(tmp_path, monkeypatch, capsys, command, seed):
    """a negative --seed or CONECERT_SEED is a usage error before anything is
    written, not a numpy traceback"""
    monkeypatch.delenv("CONECERT_SEED", raising=False)
    out = tmp_path / "out"
    args = {
        "positivity": ["positivity", identity_map_file(tmp_path), "--report", str(out)],
        "random-map": ["random-map", "--n", "2", "--m", "3", "--out", str(out)],
        "sweep": ["sweep", "--n", "2", "--m", "2", "--count", "1", "--report", str(out)],
    }[command]
    assert main(args + ["--seed", seed]) == 2
    assert "error: --seed" in capsys.readouterr().err
    monkeypatch.setenv("CONECERT_SEED", "-4")
    assert main(args) == 2
    assert "error: CONECERT_SEED" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--n", "0", "--m", "2"], ["--n", "-1", "--m", "2"], ["--n", "2", "--m", "0"],
    ["--n", "2", "--m", "2", "--rank", "0"], ["--n", "2", "--m", "2", "--rank", "-1"],
    ["--kind", "omega_q", "--n", "2", "--m", "2", "--rank", "0"],
    ["--n", "2", "--m", "2", "--rank", "5"], ["--n", "3", "--m", "2", "--rank", "3"],
    ["--kind", "omega_q", "--n", "2", "--m", "2", "--rank", "5"],
    ["--kind", "omega_q", "--n", "4", "--m", "2", "--rank", "3"],
])
def test_random_map_bad_dims_exit_2(tmp_path, capsys, flags):
    """a dimension below 1, or a rank below 1 or past min(n, m) (ad) or m (omega_q), is a usage
    error, before any file is written"""
    out = tmp_path / "rand.json"
    assert main(["random-map", *flags, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, n, m, rank", [("ad", 3, 2, 2), ("omega_q", 1, 3, 3)])
def test_random_map_largest_rank(tmp_path, capsys, kind, n, m, rank):
    """--rank may reach min(n, m) for an ad map and m for an omega_q map's m x m R"""
    out = tmp_path / "rand.json"
    flags = ["--kind", kind, "--n", str(n), "--m", str(m), "--rank", str(rank)]
    assert main(["random-map", *flags, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"{out}\n"
    obj = json.loads(out.read_text())
    assert np.linalg.matrix_rank(matrix_from_json(obj["A" if kind == "ad" else "R"])) == rank


@pytest.mark.parametrize("kind", ["ad", "omega_q"])
def test_random_map_too_large_exit_2(tmp_path, capsys, kind):
    """a size past numpy's largest array, which numpy refuses before it allocates, is a usage
    error: exit 2, an error line and no file, not a traceback"""
    out = tmp_path / "rand.json"
    for n, m in (("100000000000000000000", "2"), ("2", "100000000000000000000")):
        assert main(["random-map", "--kind", kind, "--n", n, "--m", m, "--out", str(out)]) == 2
        assert "error: cannot draw a" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_zero_count(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--n", "2", "--m", "2", "--count", "0",
                 "--report", str(out_dir)]) == 0
    capsys.readouterr()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["reports"] == []
    assert summary["not_certified"] == 0


def test_sweep_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--n", "2", "--m", "2", "--count", "1", "--seed", "2",
                 "--report", str(out_dir), "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "4 runs" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert len(summary["reports"]) == 4
    assert summary["not_certified"] == 0
    assert summary["verdict_counts"] == {"EXPOSED_FACE": 2, "EXPOSED_LINEAR": 2}
    for name in summary["reports"]:
        payload = json.loads((out_dir / name).read_text())
        jsonschema.validate(payload, REPORT_SCHEMA)
    assert (out_dir / "n2_m2_rank1_i000_T.json").exists()
    assert (out_dir / "n2_m2_rank2_i000_N.json").exists()


def test_unknown_arguments_systemexit_2():
    with pytest.raises(SystemExit) as exc:
        main(["expose", "--nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_sweep_writes_nothing_to_stderr(tmp_path, capsys):
    """no size warning: a 5 x 1 sweep is as quiet as a 2 x 2 one"""
    assert main(["sweep", "--n", "5", "--m", "1", "--count", "1",
                 "--report", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_bad_dims_exit_2(tmp_path, capsys):
    """a size below 1, or past numpy's largest array, which numpy refuses before it allocates, is
    a usage error: exit 2, an error line and no report directory, not a traceback"""
    for n in ("0", "100000000000000000000"):
        out_dir = tmp_path / n
        assert main(["sweep", "--n", n, "--m", "2", "--count", "1", "--report", str(out_dir)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()


def test_sweep_negative_count_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "d"
    assert main(["sweep", "--n", "2", "--m", "2", "--count", "-1", "--report", str(out_dir)]) == 2
    assert "error: count must be >= 0" in capsys.readouterr().err
    assert not out_dir.exists()
