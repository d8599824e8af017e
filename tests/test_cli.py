import json

import pytest

from quintic.cli import main
from quintic.errors import SeriesOutOfRange, StageError
from quintic.mpfield import PrecisionCtx, parse_complex

from golden import GOLDEN_COEFFS, GOLDEN_ROOTS


GOLDEN_ARGS = [
    "solve",
    "--m=-200i",
    "--n=1340",
    "--p=12.34910",
    "--q=-239.18200",
    "--r=339.2181700",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_at_bring(q, ctx):
    """Stands in for solve_quintic: fails the way a Bring-stage error does."""
    raise StageError("bring", SeriesOutOfRange("|x| = 5.2 > 0.9"))


def test_solve_golden_json(capsys):
    code, out, _ = run(capsys, GOLDEN_ARGS + ["--digits", "200", "--json"])
    assert code == 0
    payload = json.loads(out)
    ctx = PrecisionCtx(digits=200)
    for entry, ref_text in zip(payload["roots"], GOLDEN_ROOTS):
        got = parse_complex(entry["re"], ctx) + parse_complex(entry["im"], ctx) * ctx.mpc(0, 1)
        ref = parse_complex(ref_text, ctx)
        assert abs(got - ref) <= ctx.pow10(-50) * abs(ref)
    diag = payload["diagnostics"]
    for key in ("alpha", "xi", "eta", "d", "A", "B", "s", "strategy", "shift",
                "precision_used", "candidate_residuals"):
        assert key in diag
    assert len(diag["candidate_residuals"]) == 4
    assert payload["input"]["digits"] == 200


def test_solve_fifth_roots_text(capsys):
    code, out, _ = run(
        capsys, ["solve", "--m=0", "--n=0", "--p=0", "--q=0", "--r=-1", "--digits", "50"]
    )
    assert code == 0
    assert "r1" in out and "r5" in out


def test_solve_flag_value_gluing(capsys):
    # a bare negative literal after the flag must not be eaten as an option
    code, out, _ = run(
        capsys, ["solve", "--m", "-200i", "--n", "1340", "--p", "12.34910",
                 "--q", "-239.18200", "--r", "339.2181700", "--digits", "50"]
    )
    assert code == 0


def test_solve_bad_literal_exit_1(capsys):
    code, _, err = run(
        capsys, ["solve", "--m=bogus", "--n=0", "--p=0", "--q=0", "--r=-1", "--digits", "50"]
    )
    assert code == 1
    assert "m" in err and "bogus" in err


def test_solve_structured_failure_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("quintic.cli.solve_quintic", fail_at_bring)
    code, _, err = run(capsys, GOLDEN_ARGS + ["--digits", "50"])
    assert code == 2
    assert "StageError" in err and "bring" in err


def test_solve_oracle_fallback(tmp_path, capsys, monkeypatch):
    # the same "input" block as a closed-form report, so verify accepts it
    _, closed_form, _ = run(capsys, GOLDEN_ARGS + ["--digits", "50", "--json"])
    monkeypatch.setattr("quintic.cli.solve_quintic", fail_at_bring)
    code, out, _ = run(capsys, GOLDEN_ARGS + ["--digits", "50", "--fallback", "oracle", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["diagnostics"]["strategy"] == "oracle_fallback"
    assert "stage bring" in payload["diagnostics"]["closed_form_error"]
    assert len(payload["roots"]) == 5
    assert payload["input"] == json.loads(closed_form)["input"]
    report = tmp_path / "fallback.json"
    report.write_text(out)
    code, out2, _ = run(capsys, ["verify", str(report)])
    assert code == 0
    assert "verified" in out2


def test_solve_oracle_fallback_text_signs(capsys, monkeypatch):
    monkeypatch.setattr("quintic.cli.solve_quintic", fail_at_bring)
    code, out, _ = run(capsys, GOLDEN_ARGS + ["--digits", "50", "--fallback", "oracle"])
    assert code == 0
    assert "oracle fallback" in out
    assert sum(line.startswith("  r") for line in out.splitlines()) == 5
    assert not any("+ -" in line for line in out.splitlines())


def test_verify_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, GOLDEN_ARGS + ["--digits", "60", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload["input"]) == {*"mnpqr", "digits"}
    report = tmp_path / "report.json"
    # reports that still carry the oracle seed the input block once had verify too
    for text in (out, json.dumps({**payload, "input": {**payload["input"], "seed": 7}})):
        report.write_text(text)
        code, out2, _ = run(capsys, ["verify", str(report)])
        assert code == 0
        assert "verified" in out2


def test_verify_detects_perturbation(tmp_path, capsys):
    code, out, _ = run(capsys, GOLDEN_ARGS + ["--digits", "60", "--json"])
    payload = json.loads(out)
    root = payload["roots"][2]
    ctx = PrecisionCtx(digits=60)
    bumped = parse_complex(root["re"], ctx) + ctx.mpf("1e-10")
    from quintic.mpfield import format_complex

    root["re"] = format_complex(bumped, 45)
    report = tmp_path / "bad.json"
    report.write_text(json.dumps(payload))
    code, _, err = run(capsys, ["verify", str(report)])
    assert code == 2
    assert "residual" in err


def test_verify_malformed_json(tmp_path, capsys):
    report = tmp_path / "broken.json"
    report.write_text("{not json")
    code, _, err = run(capsys, ["verify", str(report)])
    assert code == 1


def test_verify_missing_fields(tmp_path, capsys):
    coeffs = dict(zip("mnpqr", ("-200i", "1340", "12.34910", "-239.18200", "339.2181700")))
    roots = [{"re": "1", "im": "0"}] * 5
    payloads = (
        {"roots": []},
        {"input": {"digits": 10, **coeffs}, "roots": roots},  # below PrecisionCtx's floor
        {"input": {"digits": "abc", **coeffs}, "roots": roots},
        {"input": {"digits": 50, **coeffs}, "roots": [{"re": 1, "im": 0}] * 5},  # not a string
        {"input": {"digits": float("inf"), **coeffs}, "roots": roots},  # written as Infinity
        {"input": {"digits": 50, **coeffs}, "roots": roots[:4]},
    )
    report = tmp_path / "fields.json"
    for payload in payloads:
        report.write_text(json.dumps(payload))
        code, _, err = run(capsys, ["verify", str(report)])
        assert code == 1, payload
        assert "error: malformed report" in err, payload


def test_usage_error_exit_1(capsys):
    assert main(["solve", "--m=1"]) == 1
    for command in ("frobnicate", "bench"):
        assert main([command]) == 1
    fifth_roots = ["solve", "--m=0", "--n=0", "--p=0", "--q=0", "--r=-1"]
    assert main(fifth_roots + ["--digits", "10"]) == 1
    # a solve has one path and one oracle circle: neither is an option
    assert main(fifth_roots + ["--digits", "50", "--seed", "1"]) == 1
    assert main(fifth_roots + ["--digits", "50", "--strategy", "ode"]) == 1


def test_radii_in_json_and_verify(tmp_path, capsys):
    code, out, _ = run(capsys, GOLDEN_ARGS + ["--digits", "60", "--json"])
    assert code == 0
    payload = json.loads(out)
    ctx = PrecisionCtx(digits=60)
    assert len(payload["radii"]) == 5
    for entry, radius in zip(payload["roots"], payload["radii"]):
        root = abs(parse_complex(entry["re"], ctx) + parse_complex(entry["im"], ctx) * 1j)
        assert parse_complex(radius, ctx).real <= ctx.pow10(-30) * root
    report = tmp_path / "report.json"
    report.write_text(out)
    code, out2, _ = run(capsys, ["verify", str(report)])
    assert code == 0
    assert "worst inclusion radius" in out2
