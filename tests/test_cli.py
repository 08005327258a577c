import json
import random
import subprocess
import sys

import pytest

from skewprod import SparsePoly2, format_poly, parse_poly
from conftest import DATA, GOLDEN


def run_cli(*argv, **kw):
    return subprocess.run([sys.executable, "-m", "skewprod", *argv],
                          capture_output=True, text=True, **kw)


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
@pytest.mark.parametrize("command,flags", [
    ("classify", ()),
    ("iterate", ("--n", "2")),
    ("predict", ("--n", "2")),
])
def test_golden_json(name, command, flags):
    result = run_cli(command, "--germ", str(DATA / f"{name}.germ"),
                     *flags, "--format", "json")
    assert result.returncode == 0, result.stderr
    expected = (GOLDEN / f"{name}_{command}.json").read_text()
    assert result.stdout == expected


def test_round_trip_random_polynomials():
    rng = random.Random(20260809)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 7)):
            i, j = rng.randint(0, 6), rng.randint(0, 6)
            num = rng.randint(-9, 9)
            den = rng.choice((1, 1, 2, 3, 7))
            if num:
                terms[(i, j)] = terms.get((i, j), 0)
                from fractions import Fraction

                terms[(i, j)] += Fraction(num, den)
        p = SparsePoly2(terms)
        assert parse_poly(format_poly(p)) == p


def test_exit_status_ok():
    assert run_cli("classify", "--germ", str(DATA / "g2.germ")).returncode == 0
    assert run_cli("verify", "--germ", str(DATA / "g2.germ"),
                   "--n-max", "2").returncode == 0


def test_exit_status_usage_and_parse_errors(tmp_path):
    assert run_cli("classify").returncode == 2  # missing --germ
    assert run_cli("nonsense").returncode == 2
    assert run_cli("classify", "--germ", "/nonexistent.germ").returncode == 2
    bad = tmp_path / "bad.germ"
    bad.write_text("p = z^2\nq = w^-1\n")
    r = run_cli("classify", "--germ", str(bad))
    assert r.returncode == 2
    assert "negative exponent" in r.stderr
    bad2 = tmp_path / "bad2.germ"
    bad2.write_text("p = z^2\n")
    assert run_cli("classify", "--germ", str(bad2)).returncode == 2
    bad3 = tmp_path / "const.germ"
    bad3.write_text("p = z^2\nq = 1 + w\n")
    assert run_cli("classify", "--germ", str(bad3)).returncode == 2
    r = run_cli("predict", "--germ", str(DATA / "g2.germ"),
                "--n", "2", "--l", "x/y")
    assert r.returncode == 2


def test_exit_status_resource_cap():
    r = run_cli("iterate", "--germ", str(DATA / "g1.germ"), "--n", "21")
    assert r.returncode == 3
    assert "resource cap" in r.stderr


def test_verify_text_reports_pass():
    r = run_cli("verify", "--germ", str(DATA / "g5.germ"), "--n-max", "2")
    assert r.returncode == 0
    assert "PASS" in r.stdout
    assert "vanishing event" in r.stdout


def test_fuzz_cli_json():
    r = run_cli("fuzz", "--seed", "11", "--count", "20", "--n-max", "2",
                "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["failures"] == 0
    assert payload["germs_run"] > 0


def test_predict_csv(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("predict", "--germ", str(DATA / "g2.germ"), "--n", "3",
                "--csv", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,gamma_n,d_n,c_qn,c_qn_lower,c_qn_upper,c_fn"
    assert lines[1].split(",") == ["1", "3", "1", "", "5/2", "4", "2"]
    assert lines[2].split(",") == ["2", "9", "1", "", "11/2", "10", "4"]
    assert len(lines) == 4


def test_verify_csv(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("verify", "--germ", str(DATA / "g2.germ"), "--n-max", "2",
                "--csv", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,gamma_n,d_n,c_qn,c_qn_lower,c_qn_upper,c_fn"
    assert lines[2].split(",") == ["2", "9", "1", "8", "11/2", "10", "4"]


def test_exit_status_on_check_failures(monkeypatch, tmp_path):
    """Exit 1 is reserved for failed checks; force one through a stub."""
    import skewprod.cli as cli

    class _Stub:
        failures = 2
        findings = ()
        variants = ()
        oracle = ()
        resource_error = None
        reached_n = 1
        n_max = 1

    monkeypatch.setattr(cli, "verify_germ", lambda *a, **kw: _Stub())
    monkeypatch.setattr(cli, "verification_json", lambda rep: {"failures": 2})
    rc = cli.main(["verify", "--germ", str(DATA / "g1.germ"), "--n-max", "1",
                   "--format", "json"])
    assert rc == 1


def test_pure_backend_verifies_fixtures():
    code = (
        "import skewprod as sp\n"
        "assert sp.KERNEL_BACKEND == 'pure'\n"
        "f = sp.parse_germ_file(open(r'%s').read())\n"
        "rep = sp.verify_germ(f, 3)\n"
        "assert rep.failures == 0\n"
        "print('pure ok')\n" % str(DATA / "g2.germ")
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert "pure ok" in r.stdout


def test_json_has_no_floats():
    for cmd, flags in (("classify", ()), ("predict", ("--n", "3"))):
        r = run_cli(cmd, "--germ", str(DATA / "g4.germ"), *flags,
                    "--format", "json")
        payload = json.loads(r.stdout)

        def walk(x):
            assert not isinstance(x, float), x
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        walk(payload)
