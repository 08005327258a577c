import json
import os
import random
import subprocess
import sys

import pytest

from skewprod import FuzzConfig, SparsePoly2, format_poly, parse_poly
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
    assert_matches_golden(name, command, flags)


# g4's equality interval is [1/2, 2]: 5/2 lies outside it, so its
# weight is reported without a claim, and 1 adds a claim inside it.
VERIFY_FLAGS = {"g4": ("--l", "5/2", "--l", "1")}


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5", "g6", "g7"])
def test_golden_verify_json(name):
    """Every claim, detail string and prediction verify reports."""
    assert_matches_golden(name, "verify",
                          ("--n-max", "3") + VERIFY_FLAGS.get(name, ()))


def test_golden_predict_extra_l_json():
    """predict with g4's extra samples: a claim at 1, none at 5/2."""
    assert_matches_golden("g4", "predict", ("--n", "2") + VERIFY_FLAGS["g4"],
                          golden="g4_predict_l.json")


def assert_matches_golden(name, command, flags, golden=None):
    result = run_cli(command, "--germ", str(DATA / f"{name}.germ"),
                     *flags, "--format", "json")
    assert result.returncode == 0, result.stderr
    expected = (GOLDEN / (golden or f"{name}_{command}.json")).read_text()
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


@pytest.mark.parametrize("n", ["0", "-2"])
def test_exit_status_nonpositive_n(n):
    """iterate, predict and verify each reject a depth below 1."""
    for command, flag in (("iterate", "--n"), ("predict", "--n"),
                          ("verify", "--n-max")):
        r = run_cli(command, "--germ", str(DATA / "g2.germ"), flag, n)
        assert r.returncode == 2, (command, r.stdout)
        assert "n must be a positive integer" in r.stderr


def test_exit_status_negative_fuzz_count():
    """A negative --count is a usage error; --count 0 runs no germ."""
    r = run_cli("fuzz", "--seed", "1", "--count", "-3", "--n-max", "1")
    assert r.returncode == 2, r.stdout
    assert "germ count must be non-negative" in r.stderr


@pytest.mark.parametrize("flags,field", [
    (("--delta-max", "0"), "delta_max"),
    (("--support-max", "0"), "support_max"),
    (("--boundary-bias", "150"), "boundary_bias_pct"),
    (("--boundary-bias", "-1"), "boundary_bias_pct"),
    (("--degree-cap", "-1"), "degree_cap"),
    (("--n-max", "0"), "n_max"),
])
def test_exit_status_fuzz_config_out_of_range(flags, field):
    """Each out-of-range campaign setting is a usage error naming it."""
    r = run_cli("fuzz", "--seed", "1", "--count", "3", "--n-max", "1",
                *flags)
    assert r.returncode == 2, r.stdout
    assert field in r.stderr


def test_fuzz_flag_defaults_are_the_config_defaults():
    from skewprod.cli import build_parser

    args = build_parser().parse_args(["fuzz", "--seed", "1", "--count", "2"])
    cfg = FuzzConfig(seed=1, germ_count=2)
    assert (args.delta_max, args.support_max, args.n_max, args.degree_cap,
            args.boundary_bias_pct) == (
        cfg.delta_max, cfg.support_max, cfg.n_max, cfg.degree_cap,
        cfg.boundary_bias_pct)


def test_classify_coefficient_past_the_digit_limit(tmp_path):
    """A 5,000-digit coefficient in a germ file, past the default limit
    of 4,300 digits, is a parse error with its position: exit 2."""
    path = tmp_path / "long.germ"
    path.write_text("p = z^2\nq = w^2 + " + "9" * 5000 + "*z^3\n")
    r = run_cli("classify", "--germ", str(path),
                env=dict(os.environ, PYTHONINTMAXSTRDIGITS="4300"))
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert ("line 2: q: number has more than 4300 digits, the interpreter's "
            "limit for string-to-int conversion (at position 6)") in r.stderr


@pytest.mark.parametrize("n,code", [("13", 0), ("14", 3)])
def test_predict_coefficient_past_the_digit_limit(tmp_path, n, code):
    """Q^n's dominant coefficient is 3 * 2^(gamma_1 + ... + gamma_{n-1}):
    3,699 digits at n = 13, which print, and 7,398 at n = 14, more than
    str() converts under the default limit of 4,300: a resource cap,
    not a usage error."""
    path = tmp_path / "big.germ"
    path.write_text("p = 2*z^2\nq = 3*z^3 + w^2\n")
    r = run_cli("predict", "--germ", str(path), "--n", n,
                env=dict(os.environ, PYTHONINTMAXSTRDIGITS="4300"))
    assert r.returncode == code, r.stderr
    if code == 0:
        assert f"n=13: (gamma_n, d^n) = (12288, 0), coeff {3 * 2**12285};" \
            in r.stdout
    else:
        assert r.stdout == ""
        assert "resource cap exceeded" in r.stderr
        assert "4300 digits" in r.stderr


def test_verify_keeps_the_n_whose_predictions_fit(tmp_path):
    """Under a 640-digit limit the dominant coefficient of Q^11 does not
    print: verify keeps n <= 10, reports the cap and exits 3."""
    path = tmp_path / "big.germ"
    path.write_text("p = 2*z^2\nq = 3*z^3 + w^2\n")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
    fits = run_cli("verify", "--germ", str(path), "--n-max", "10",
                   "--format", "json", env=env)
    assert fits.returncode == 0, fits.stderr
    r = run_cli("verify", "--germ", str(path), "--n-max", "11",
                "--format", "json", env=env)
    assert r.returncode == 3, r.stderr
    payload = json.loads(r.stdout)
    assert payload["reached_n"] == 10
    assert payload["failures"] == 0
    assert "Q^11 has more than 640 digits" in payload["resource_error"]
    assert [rec["n"] for rec in payload["oracle"]] == list(range(1, 11))
    # Apart from n_max and the cap, the report is the n-max 10 one.
    expected = json.loads(fits.stdout)
    for key in ("n_max", "resource_error"):
        payload.pop(key), expected.pop(key)
    assert payload == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_iterate_past_the_digit_limit(tmp_path, fmt):
    """Q^n's coefficient 10^(40 (2^n - 1)) has 601 digits at n = 4 and
    1,241 at n = 5, more than str() converts under a 640-digit limit:
    every renderer reports a resource cap, not a usage error."""
    path = tmp_path / "wide.germ"
    path.write_text(f"p = z^2\nq = {10**40}*w^2 + z\n")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
    fits = run_cli("iterate", "--germ", str(path), "--n", "4",
                   "--format", fmt, env=env)
    assert fits.returncode == 0, fits.stderr
    assert str(10**600) in fits.stdout
    r = run_cli("iterate", "--germ", str(path), "--n", "5",
                "--format", fmt, env=env)
    assert r.returncode == 3, r.stderr
    assert r.stdout == ""
    assert "resource cap exceeded" in r.stderr
    assert "more than 640 digits" in r.stderr


def test_duplicate_l_outside_the_interval_counts_once():
    """g2's equality interval is [2, 3]: 100 lies outside it, and a
    repeated --l 100 is one sample, checked once per n."""
    flags = ("--l", "100", "--l", "5/2", "--l", "100", "--l", "7")
    r = run_cli("predict", "--germ", str(DATA / "g2.germ"), "--n", "2",
                *flags)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == (
        "no claim for l outside the equality range: 100, 7")
    r = run_cli("verify", "--germ", str(DATA / "g2.germ"), "--n-max", "2",
                *flags, "--format", "json")
    assert r.returncode == 0, r.stderr
    checks = json.loads(r.stdout)["variants"][0]["checks"]
    outside = [(c["n"], c["detail"]) for c in checks
               if c["claim"] == "weight-sample-outside-range"]
    assert [n for n, _ in outside] == [1, 1, 2, 2]
    assert ["100" in d for _, d in outside] == [True, False, True, False]


def test_classify_text_brackets_follow_the_interval(tmp_path):
    """Case 1's equality interval (0, inf) is open at both ends."""
    path = tmp_path / "case1.germ"
    path.write_text("p = z^2\nq = z\n")
    r = run_cli("classify", "--germ", str(path))
    assert r.returncode == 0, r.stderr
    assert "case: Case1 (applicable: Case1)" in r.stdout
    assert "interval: (0, inf)" in r.stdout.splitlines()
    r = run_cli("classify", "--germ", str(DATA / "g2.germ"))
    assert "interval: [2, 3]" in r.stdout.splitlines()


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
    assert lines == ["n,gamma_n,d_n,c_qn,c_qn_lower,c_qn_upper,c_fn",
                     "1,3,1,3,5/2,4,2",
                     "2,9,1,8,11/2,10,4"]


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
