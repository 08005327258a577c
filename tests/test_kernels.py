"""The two product paths, Kronecker substitution and the dict loop, must
agree exactly: same terms, same coefficient types."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import _kernels
from skewprod._kernels import mul_dict, mul_kronecker, mul_terms
from skewprod.poly import KERNEL_BACKEND


def exact(terms):
    """The terms with their coefficient types: 2 and Fraction(2, 1) differ."""
    return repr(sorted(terms.items()))


def assert_paths_agree(a, b):
    expected = exact(mul_dict(a, b))
    for x, y in ((a, b), (b, a)):
        out = mul_kronecker(x, y)
        assert out is not None
        assert exact(out) == expected
    assert exact(mul_terms(a, b)) == expected


def random_coeff(rng, kind, cmax):
    c = rng.choice((-1, 1)) * rng.randint(1, cmax)
    if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
        return Fraction(c, rng.randint(1, 12))
    return c


def random_terms(rng, size, kind, span, cmax):
    terms = {(rng.randint(0, span), rng.randint(0, span)):
             random_coeff(rng, kind, cmax) for _ in range(size)}
    if kind == "mixed":  # one of each type at least
        terms[(span + 1, 0)] = random_coeff(rng, "int", cmax)
        terms[(0, span + 1)] = random_coeff(rng, "fraction", cmax)
    return terms


# Kind pairs whose product types Kronecker reproduces: all-int with
# all-int, and anything int or Fraction with all-Fraction.
AGREEING_KINDS = [("int", "int"), ("fraction", "fraction"),
                  ("int", "fraction"), ("mixed", "fraction")]


def test_paths_agree_seeded():
    rng = random.Random(20260809)
    for kind_a, kind_b in AGREEING_KINDS:
        for _ in range(40):
            span = rng.choice((0, 3, 12, 40))
            cmax = rng.choice((1, 20, 2**64))
            a = random_terms(rng, rng.randint(1, 40), kind_a, span, cmax)
            b = random_terms(rng, rng.randint(1, 40), kind_b, span, cmax)
            assert_paths_agree(a, b)
            assert_paths_agree(b, b)  # packs one operand for both sides


def test_mixed_operands_take_the_dict_path():
    # In the dict loop a coefficient is an int only if every product that
    # reached it was int * int, so its type depends on the support.
    rng = random.Random(5)
    for kind_a, kind_b in (("mixed", "mixed"), ("mixed", "int")):
        for _ in range(20):
            a = random_terms(rng, rng.randint(1, 30), kind_a, 6, 20)
            b = random_terms(rng, rng.randint(1, 30), kind_b, 6, 20)
            assert mul_kronecker(a, b) is None
            assert exact(mul_terms(a, b)) == exact(mul_dict(a, b))
    # Large and dense enough for Kronecker, but mixed: falls back.
    a = {(i, j): (1 if (i + j) % 2 else Fraction(1, 3))
         for i in range(8) for j in range(8)}
    out = mul_terms(a, a)
    assert exact(out) == exact(mul_dict(a, a))
    assert {type(c) for c in out.values()} == {int, Fraction}


def test_cancellation_drops_terms():
    a = {(0, 0): 1, (1, 0): 1}
    b = {(0, 0): 1, (1, 0): -1}
    # (1 + z)(1 - z) = 1 - z^2
    assert _kernels.mul_terms(a, b) == {(0, 0): 1, (2, 0): -1}
    assert _kernels.add_terms(a, b) == {(0, 0): 2}
    assert mul_kronecker(a, b) == {(0, 0): 1, (2, 0): -1}


def test_cancelling_products():
    # (1 + z + ... + z^(n-1)) (1 - z) = 1 - z^n: every middle slot is zero.
    for one in (1, Fraction(1)):
        for n in (1, 2, 50):
            a = {(i, 3): one for i in range(n)}
            b = {(0, 0): one, (1, 0): -one}
            assert mul_kronecker(a, b) == {(0, 3): 1, (n, 3): -1}
            assert_paths_agree(a, b)
    # (w - z)(w + z) over Fractions: the cross terms cancel.
    a = {(0, 1): Fraction(2, 3), (1, 0): Fraction(-5, 7)}
    b = {(0, 1): Fraction(2, 3), (1, 0): Fraction(5, 7)}
    assert_paths_agree(a, b)
    assert (1, 1) not in mul_kronecker(a, b)


def test_negative_coefficients():
    a = {(i, j): -(i + 2 * j + 1) for i in range(5) for j in range(4)}
    b = {(i, 0): -(7**i) for i in range(6)}
    assert_paths_agree(a, b)
    assert_paths_agree(a, {k: Fraction(-1, v) for k, v in a.items()})


def test_slot_width_boundaries():
    # A slot of k bytes holds |v| <= 2**(8k - 1) - 1.  These products put
    # the bound on the output coefficients, and exactly at that limit.
    for k in (1, 2, 3, 4, 8):
        top = 2**(8 * k - 1) - 1
        for sign in (1, -1):
            a = {(0, 0): sign * top, (2, 1): -sign * top, (1, 1): 1}
            assert_paths_agree(a, {(0, 0): 1})
            assert_paths_agree(a, {(0, 0): -1, (1, 0): 1})
            assert_paths_agree({(0, 0): sign * (top + 1)}, {(3, 0): 1})
    # n equal terms times n equal terms: the middle slot of the product
    # sums n products to exactly the largest value k bytes hold.
    for k, n, ca, cb in ((1, 127, 1, 1), (2, 7, 31, 151), (3, 47, 1, 178481)):
        assert n * ca * cb == 2**(8 * k - 1) - 1
        a = {(i, 0): ca for i in range(n)}
        for sign in (1, -1):
            b = {(i, 0): sign * cb for i in range(n)}
            assert mul_kronecker(a, b)[(n - 1, 0)] == sign * n * ca * cb
            assert_paths_agree(a, b)
            assert_paths_agree(a, {(0, i): sign * cb for i in range(n)})
    # Sums that need a wider slot than any one product of two terms.
    for n, c in ((2, 11), (3, 181), (130, 1)):
        a = {(i, 0): c for i in range(n)}
        assert_paths_agree(a, a)
        assert_paths_agree(a, {key: -c for key in a})


def test_single_term_and_empty_operands():
    b = {(0, 0): 3, (2, 5): -4, (1, 1): 1}
    for one in ({(4, 2): 7}, {(0, 0): Fraction(-2, 9)}, {(1, 0): 1}):
        assert_paths_agree(one, b)
        assert_paths_agree(one, one)
    for a in ({}, b):
        assert mul_kronecker(a, {}) == mul_kronecker({}, a) == {}
        assert mul_terms(a, {}) == mul_dict(a, {}) == {}


def test_sparse_box_takes_the_dict_path(monkeypatch):
    n = 64  # n * n multiply-adds, enough for Kronecker if it were dense
    assert n * n >= _kernels.KRONECKER_MIN_WORK
    a = {(1000 * i, 0): i + 1 for i in range(n)}
    b = {(0, 1000 * j): j - 7 for j in range(n)}
    expected = exact(mul_dict(a, b))

    def refuse(a, b):
        raise AssertionError("a sparse product reached mul_kronecker")

    monkeypatch.setattr(_kernels, "mul_kronecker", refuse)
    assert exact(mul_terms(a, b)) == expected


def test_dense_box_takes_the_kronecker_path(monkeypatch):
    a = {(i, j): i - 3 * j - 100 for i in range(8) for j in range(8)}
    b = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
    assert len(a) * len(b) >= _kernels.KRONECKER_MIN_WORK
    expected = [exact(mul_dict(a, a)), exact(mul_dict(a, b))]

    def refuse(a, b):
        raise AssertionError("a dense product reached mul_dict")

    monkeypatch.setattr(_kernels, "mul_dict", refuse)
    assert [exact(mul_terms(a, a)), exact(mul_terms(a, b))] == expected


def test_backend_reported():
    assert KERNEL_BACKEND == "pure"


keys = st.tuples(st.integers(0, 9), st.integers(0, 9))
ints = st.integers(-2**70, 2**70).filter(bool)
fractions = st.builds(Fraction, ints, st.integers(1, 10**6))
int_terms = st.dictionaries(keys, ints, min_size=1, max_size=25)
fraction_terms = st.dictionaries(keys, fractions, min_size=1, max_size=25)
mixed_terms = st.dictionaries(keys, st.one_of(ints, fractions),
                              min_size=1, max_size=25)


@given(int_terms, int_terms)
@settings(max_examples=150, deadline=None)
def test_paths_agree_on_ints(a, b):
    assert_paths_agree(a, b)


@given(st.one_of(int_terms, fraction_terms, mixed_terms), fraction_terms)
@settings(max_examples=150, deadline=None)
def test_paths_agree_with_a_fraction_operand(a, b):
    assert_paths_agree(a, b)


@given(mixed_terms, mixed_terms)
@settings(max_examples=100, deadline=None)
def test_mixed_products_match_the_dict_loop(a, b):
    out = mul_kronecker(a, b)
    kinds = {frozenset(map(type, t.values())) for t in (a, b)}
    if kinds <= {frozenset({int})} or frozenset({Fraction}) in kinds:
        assert exact(out) == exact(mul_dict(a, b))
    else:
        assert out is None
    assert exact(mul_terms(a, b)) == exact(mul_dict(a, b))
