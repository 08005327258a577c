"""The two product paths, Kronecker substitution and the dict loop, must
agree exactly: same terms, same coefficient types, every coefficient
canonical (an int when integral, a Fraction otherwise).  Both paths
take int operands only; on rational ones they run through
reference.on_numerators, as mul_terms runs them."""

import decimal
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import _kernels
from skewprod._kernels import mul_dict, mul_kronecker, mul_terms
from skewprod.exact import as_coeff
from skewprod.poly import KERNEL_BACKEND, SparsePoly2, poly_sum

from reference import on_numerators


def exact(terms):
    """The terms with their coefficient types: 2 and Fraction(2, 1) differ."""
    return repr(sorted(terms.items()))


def assert_paths_agree(a, b):
    expected = exact(on_numerators(mul_dict, a, b))
    assert exact(canonical(mul_pair(a, b))) == expected
    for x, y in ((a, b), (b, a)):
        out = on_numerators(mul_kronecker, x, y)
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


KIND_PAIRS = [("int", "int"), ("fraction", "fraction"), ("int", "fraction"),
              ("mixed", "fraction"), ("mixed", "int"), ("mixed", "mixed")]


def test_paths_agree_seeded():
    rng = random.Random(20260809)
    for kind_a, kind_b in KIND_PAIRS:
        for _ in range(40):
            span = rng.choice((0, 3, 12, 40))
            cmax = rng.choice((1, 20, 2**64))
            a = random_terms(rng, rng.randint(1, 40), kind_a, span, cmax)
            b = random_terms(rng, rng.randint(1, 40), kind_b, span, cmax)
            assert_paths_agree(a, b)
            assert_paths_agree(b, b)  # packs one operand for both sides


def test_mixed_operands_take_the_kronecker_path(monkeypatch):
    # The value alone fixes a coefficient's type, so Kronecker gives the
    # dict loop's coefficients whatever the operands' types.
    rng = random.Random(5)
    for kind_a, kind_b in (("mixed", "mixed"), ("mixed", "int")):
        for _ in range(20):
            a = random_terms(rng, rng.randint(1, 30), kind_a, 6, 20)
            b = random_terms(rng, rng.randint(1, 30), kind_b, 6, 20)
            assert_paths_agree(a, b)
    # Large and dense enough for Kronecker, and mixed.
    a = {(i, j): (1 if (i + j) % 2 else Fraction(1, 3))
         for i in range(8) for j in range(8)}
    expected = exact(on_numerators(mul_dict, a, a))
    monkeypatch.setattr(_kernels, "mul_dict", refuse("mul_dict"))
    out = mul_terms(a, a)
    assert exact(out) == expected
    assert {type(c) for c in out.values()} == {int, Fraction}


def test_a_cancelled_key_restarts_its_type():
    # (2, 0) is reached first by Fraction(2) * 1, then cancelled by
    # 1 * -2, then inserted afresh by 1 * 3.  Every coefficient is
    # canonical, so the type follows the value: Fraction(2) * 3 at
    # (0, 0) is the int 6 as much as 1 * 3 at (2, 0) is the int 3.
    a = {(0, 0): Fraction(2), (1, 0): 1, (2, 0): 1}
    b = {(2, 0): 1, (1, 0): -2, (0, 0): 3}
    expected = {(1, 0): -1, (0, 0): 6, (3, 0): -1, (4, 0): 1, (2, 0): 3}
    for out in (on_numerators(mul_dict, a, b), mul_terms(a, b),
                canonical(mul_pair(a, b))):
        assert repr(list(out.items())) == repr(list(expected.items()))
    assert exact(on_numerators(mul_kronecker, a, b)) == exact(expected)


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
            assert on_numerators(mul_kronecker, a, b) == {(0, 3): 1,
                                                          (n, 3): -1}
            assert_paths_agree(a, b)
    # (w - z)(w + z) over Fractions: the cross terms cancel.
    a = {(0, 1): Fraction(2, 3), (1, 0): Fraction(-5, 7)}
    b = {(0, 1): Fraction(2, 3), (1, 0): Fraction(5, 7)}
    assert_paths_agree(a, b)
    assert (1, 1) not in on_numerators(mul_kronecker, a, b)


def test_negative_coefficients():
    a = {(i, j): -(i + 2 * j + 1) for i in range(5) for j in range(4)}
    b = {(i, 0): -(7**i) for i in range(6)}
    assert_paths_agree(a, b)
    assert_paths_agree(a, {k: Fraction(-1, v) for k, v in a.items()})


def test_slot_width_boundaries():
    # Coefficients and sums that reach exactly |v| = 2**(8k - 1) - 1, the
    # most a signed k-byte int holds; the decimal boundaries are in
    # test_decimal_slot_boundaries.
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


def test_slot_digits():
    # The fewest digits d with 5 * 10**(d - 1) > bound: a slot of d digits
    # holds |v| <= 5 * 10**(d - 1) - 1, and one more digit is needed from
    # 5 * 10**(d - 1) on.
    for d in (*range(1, 60), 300, 1234, 4300, 5001):
        top = 5 * 10**(d - 1) - 1
        assert _kernels._slot_digits(top) == d
        assert _kernels._slot_digits(top + 1) == d + 1
        if d > 1:
            assert _kernels._slot_digits(10**(d - 1)) == d


def test_decimal_slot_boundaries():
    # Coefficients and sums that reach exactly +-(5 * 10**(d - 1) - 1), the
    # most a slot of d digits holds once biased by 5 * 10**(d - 1).
    for d in (1, 2, 3, 7, 19, 20, 40):
        top = 5 * 10**(d - 1) - 1
        for sign in (1, -1):
            a = {(0, 0): sign * top, (2, 1): -sign * top, (1, 1): 1}
            assert mul_kronecker(a, {(0, 0): 1}) == a
            assert_paths_agree(a, {(0, 0): 1})
            assert_paths_agree(a, {(0, 0): -1, (1, 0): 1})
            assert_paths_agree({(0, 0): sign * (top + 1)}, {(3, 0): 1})
    # n equal terms times n equal terms: the middle slot sums n products
    # to exactly the largest value d digits hold.
    for d, n, ca, cb in ((1, 4, 1, 1), (2, 7, 7, 1), (6, 127, 127, 31),
                         (8, 23, 7, 310559), (11, 29, 1, 1724137931)):
        assert n * ca * cb == 5 * 10**(d - 1) - 1
        a = {(i, 0): ca for i in range(n)}
        for sign in (1, -1):
            b = {(i, 0): sign * cb for i in range(n)}
            assert mul_kronecker(a, b)[(n - 1, 0)] == sign * n * ca * cb
            assert_paths_agree(a, b)
            assert_paths_agree(a, {(0, i): sign * cb for i in range(n)})
            fa = {key: Fraction(c, 3) for key, c in a.items()}
            assert on_numerators(mul_kronecker, fa, b)[(n - 1, 0)] == Fraction(
                sign * n * ca * cb, 3)
            assert_paths_agree(fa, b)


def test_decimal_cancelling_product():
    # top * (1 + z + w) times top * (1 - z): the z slot cancels between
    # two products of the full slot width.
    top = 5 * 10**19 - 1
    a = {(0, 0): top, (1, 0): top, (0, 1): top}
    b = {(0, 0): top, (1, 0): -top}
    out = mul_kronecker(a, b)
    assert (1, 0) not in out
    assert out == {(0, 0): top**2, (2, 0): -top**2, (0, 1): top**2,
                   (1, 1): -top**2}
    assert_paths_agree(a, b)


def test_short_top_slot():
    # The product's top slot holds -top, so its biased value is 1, one
    # digit where the slot has d: the decoder must pad it back.
    for d in (2, 5, 30):
        top = 5 * 10**(d - 1) - 1
        for a in ({(0, 0): 1, (1, 0): -top}, {(0, 0): top, (0, 3): -top},
                  {(0, 0): Fraction(1, 7), (2, 2): Fraction(-top, 7)}):
            assert on_numerators(mul_kronecker, a, {(0, 0): 1}) == a
            assert_paths_agree(a, {(0, 0): 1})
            assert_paths_agree(a, {(0, 0): 1, (0, 1): 1})


def test_transform_sized_products():
    # The smaller packed operand has more than 10**5 digits, so libmpdec
    # multiplies by its number-theoretic transform, not its base case.
    rng = random.Random(20261018)
    for kind in ("int", "fraction"):
        a = {(rng.randrange(60), rng.randrange(200)):
             random_coeff(rng, kind, 10**15) for _ in range(150)}
        b = {(rng.randrange(60), rng.randrange(200)):
             random_coeff(rng, kind, 10**15) for _ in range(150)}
        # Both boxes are 60 x 200, so each operand fills 59 * 399 + 200
        # slots of the 119 x 399 product box.
        a[(0, 0)] = b[(0, 0)] = random_coeff(rng, kind, 9)
        a[(59, 199)] = b[(59, 199)] = random_coeff(rng, kind, 9)
        num_a = _kernels._clear_denominators(a)[1]
        num_b = _kernels._clear_denominators(b)[1]
        bound = min(sum(map(abs, num_a.values())) * max(map(abs, num_b.values())),
                    max(map(abs, num_a.values())) * sum(map(abs, num_b.values())))
        assert (59 * 399 + 200) * _kernels._slot_digits(bound) > 10**5
        assert_paths_agree(a, b)


def test_decimal_is_the_c_module():
    # The pure-Python decimal multiplies in quadratic time.
    _decimal = pytest.importorskip("_decimal")
    assert decimal.Decimal is _decimal.Decimal


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int <-> str conversion")
def test_slots_past_the_int_str_limit_take_the_dict_path():
    # A slot is read with int(str), which raises past the limit, so the
    # kernel gives such products to the dict loop.
    top = 5 * 10**639 - 1  # the most a slot of 640 digits holds
    fits = {(i, j): 1 + (i + j) % 3 for i in range(6) for j in range(6)}
    fits[(0, 0)] = top
    dense = {(i, j): 10**700 + i - j for i in range(8) for j in range(8)}
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        over = mul_kronecker({(0, 0): top + 1}, {(0, 0): 1})
        at_limit = mul_kronecker({(0, 0): top}, {(0, 0): 1})
        big = [mul_kronecker(dense, dense), mul_terms(dense, dense),
               mul_kronecker(dense, fits), mul_terms(fits, dense),
               mul_kronecker(fits, {(0, 0): 1})]
    finally:
        sys.set_int_max_str_digits(saved)
    assert over is None
    assert at_limit == {(0, 0): top}
    assert big[0] is None and big[2] is None
    assert exact(big[1]) == exact(mul_dict(dense, dense))
    assert exact(big[3]) == exact(mul_dict(fits, dense))
    assert big[4] == fits


def test_sparse_box_takes_the_dict_path(monkeypatch):
    n = 64  # n * n multiply-adds, enough for Kronecker if it were dense
    assert n >= _kernels.KRONECKER_MIN_WORK_PER_CELL
    a = {(1000 * i, 0): i + 1 for i in range(n)}
    b = {(0, 1000 * j): j - 7 for j in range(n)}
    expected = exact(mul_dict(a, b))

    def refuse(*args):
        raise AssertionError("a sparse product reached mul_kronecker")

    monkeypatch.setattr(_kernels, "mul_kronecker", refuse)
    assert exact(mul_terms(a, b)) == expected


def test_dense_box_takes_the_kronecker_path(monkeypatch):
    a = {(i, j): i - 3 * j - 100 for i in range(8) for j in range(8)}
    b = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
    assert len(a) * len(b) >= 15 * 15 * _kernels.KRONECKER_MIN_WORK_PER_CELL
    expected = [exact(mul_dict(a, a)), exact(on_numerators(mul_dict, a, b))]

    def refuse(a, b):
        raise AssertionError("a dense product reached mul_dict")

    monkeypatch.setattr(_kernels, "mul_dict", refuse)
    assert [exact(mul_terms(a, a)), exact(mul_terms(a, b))] == expected


def test_row_decode_shapes():
    # The decoder reads the product one row of the bounding box (one i) at
    # a time, highest j first, and skips an all-zero row whole.
    for one in (1, Fraction(1, 3)):
        # Width 1: every row is one slot.
        a = {(i, 4): one * (i - 3) for i in range(7) if i != 3}
        assert_paths_agree(a, {(0, 0): one, (2, 0): -one, (5, 0): 2 * one})
        # One row: the whole product is one row.
        b = {(2, j): one * (j + 1) * (-1) ** j for j in range(9)}
        assert_paths_agree(b, {(1, 0): one, (1, 3): -one, (1, 7): 3 * one})
        # Rows next to the top and the bottom are empty: rows {0, 2} times
        # rows {0, 3} fill rows 0, 2, 3 and 5 of 0..5.
        c = {(0, 0): one, (0, 3): 2 * one, (2, 1): -one, (2, 2): 3 * one}
        d = {(0, 0): one, (0, 1): -one, (3, 0): 5 * one}
        out = on_numerators(mul_kronecker, c, d)
        assert sorted({i for i, _ in out}) == [0, 2, 3, 5]
        assert_paths_agree(c, d)
        # A row whose highest-j slot is zero and one whose only nonzero
        # slot is its lowest j.
        e = {(0, 0): one, (0, 5): one, (1, 0): 4 * one, (2, 2): -one}
        f = {(0, 0): one, (1, 0): 2 * one}
        out = on_numerators(mul_kronecker, e, f)
        assert out[(1, 0)] == 6 * one * one
        assert (1, 5) in out and (2, 5) not in out
        assert_paths_agree(e, f)
        # A middle row that cancels: (1 - z^2)(w + 3 w^3).
        g = {(0, 0): one, (1, 0): one, (0, 2): 3 * one, (1, 2): 3 * one}
        h = {(0, 1): one, (1, 1): -one}
        out = on_numerators(mul_kronecker, g, h)
        assert out == {(0, 1): one * one, (0, 3): 3 * one * one,
                       (2, 1): -one * one, (2, 3): -3 * one * one}
        assert {type(v) for v in out.values()} == {type(one)}
        assert_paths_agree(g, h)


def shape_of(a, b):
    rows, width = _kernels._product_shape(_kernels._box(a), _kernels._box(b))
    return rows * width, len(a) * len(b)


def test_fraction_products_share_the_int_bound(monkeypatch):
    # 6 x 6 terms spread over a 7 x 7 box of cells: 36 multiply-adds in
    # 49 cells, under the bound, so the dict loop whatever the types.
    a = {(i, i % 3): i + 1 for i in range(6)}
    b = {(i, 3 - i % 4): 2 * i - 5 for i in range(6)}
    cells, work = shape_of(a, b)
    assert cells * _kernels.KRONECKER_MIN_WORK_PER_CELL > work
    fa = {key: Fraction(c, 7) for key, c in a.items()}
    mixed = {**a, (0, 0): Fraction(1, 2)}
    # 8 x 8 terms filling their 8 x 8 box: 4,096 multiply-adds in 225
    # cells, over the bound.
    dense = {(i, j): Fraction(i - j, 3) or Fraction(1, 5)
             for i in range(8) for j in range(8)}
    dense_mixed = {key: c.numerator if (key[0] + key[1]) % 2 else c
                   for key, c in dense.items()}
    cells, work = shape_of(dense, dense)
    assert cells * _kernels.KRONECKER_MIN_WORK_PER_CELL <= work
    pairs = {"int": (a, b), "fraction": (fa, b), "both": (fa, fa),
             "mixed": (mixed, mixed), "dense": (dense, dense),
             "dense_int": (dense, dense_mixed),
             "dense_mixed": (dense_mixed, dense_mixed)}
    expected = {name: exact(on_numerators(mul_dict, x, y))
                for name, (x, y) in pairs.items()}
    with monkeypatch.context() as m:
        m.setattr(_kernels, "mul_kronecker", refuse("mul_kronecker"))
        for name in ("int", "fraction", "both", "mixed"):
            x, y = pairs[name]
            assert exact(mul_terms(x, y)) == expected[name]
            assert exact(mul_terms(y, x)) == expected[name]
    with monkeypatch.context() as m:
        m.setattr(_kernels, "mul_dict", refuse("mul_dict"))
        for name in ("dense", "dense_int", "dense_mixed"):
            x, y = pairs[name]
            assert exact(mul_terms(x, y)) == expected[name]
            assert exact(mul_terms(y, x)) == expected[name]


def test_sparse_fraction_products_take_the_dict_path(monkeypatch):
    # 5 x 5 terms over 9 x 9 cells: 25 multiply-adds in 81 cells, under
    # the bound; and 4 terms, under the same bound as a floor on the
    # smaller operand's terms, however dense.
    a = {(2 * i, 2 * i): Fraction(i + 1, 3) for i in range(5)}
    cells, work = shape_of(a, a)
    assert cells * _kernels.KRONECKER_MIN_WORK_PER_CELL > work
    four = {(i, j): Fraction(i - j, 5) or Fraction(1) for i in (0, 1)
            for j in (0, 1)}
    dense = {(i, j): Fraction(i + j + 1, 2) for i in range(3) for j in range(3)}
    assert len(four) < _kernels.KRONECKER_MIN_WORK_PER_CELL
    expected = [exact(on_numerators(mul_dict, a, a)),
                exact(on_numerators(mul_dict, four, dense))]
    monkeypatch.setattr(_kernels, "mul_kronecker", refuse("mul_kronecker"))
    assert [exact(mul_terms(a, a)), exact(mul_terms(four, dense))] == expected


def test_paths_take_only_int_operands(monkeypatch):
    # mul_terms clears each operand once, a squared one once for both
    # sides, hands either path int term dicts only, and divides once.
    seen, cleared = [], []

    def int_only(name):
        path = getattr(_kernels, name)

        def run(a, b, *boxes):
            seen.append(name)
            assert all(type(c) is int for c in (*a.values(), *b.values()))
            return path(a, b, *boxes)
        return run

    clear = _kernels._clear_denominators
    monkeypatch.setattr(_kernels, "_clear_denominators",
                        lambda a: cleared.append(a) or clear(a))
    for name in ("mul_dict", "mul_kronecker"):
        monkeypatch.setattr(_kernels, name, int_only(name))
    sparse = {(2 * i, 2 * i): Fraction(i + 1, 3) for i in range(5)}
    dense = {(i, j): Fraction(i - j, 3) or Fraction(1, 5)
             for i in range(8) for j in range(8)}
    mixed = {key: c.numerator if (key[0] + key[1]) % 2 else c
             for key, c in dense.items()}
    integral = {(i, j): Fraction(i + 2 * j + 1)
                for i in range(6) for j in range(6)}
    ints = {(i, j): i - 3 * j - 100 for i in range(8) for j in range(8)}
    one = {(1, 2): Fraction(-2, 9)}
    pairs = [(sparse, sparse), (dense, dense), (mixed, mixed),
             (integral, integral), (dense, mixed), (sparse, dense),
             (integral, dense), (ints, dense), (one, dense), (mixed, one)]
    for a, b in pairs:
        cleared.clear()
        out = mul_terms(a, b)
        assert exact(out) == exact(canonical(mul_pair(a, b)))
        assert len(cleared) == (1 if b is a else 2)
    assert set(seen) == {"mul_dict", "mul_kronecker"}


def refuse(name):
    def stub(*args):
        raise AssertionError(f"this product reached {name}")
    return stub


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
    expected = exact(on_numerators(mul_dict, a, b))
    assert exact(on_numerators(mul_kronecker, a, b)) == expected
    assert exact(mul_terms(a, b)) == expected


def add_pair(a, b):
    """The two-operand sum, written out: copy a, add b, drop zeros."""
    out = dict(a)
    for key, c in b.items():
        if key in out:
            v = out[key] + c
            if v:
                out[key] = v
            else:
                del out[key]
        else:
            out[key] = c
    return out


def canonical(terms):
    """The terms with each coefficient as exact.as_coeff gives it, in
    the same order."""
    return {key: as_coeff(c) for key, c in terms.items()}


def mul_pair(a, b):
    """The product, written out on the coefficients themselves: the
    larger operand's terms within each of the smaller one's, zeros
    dropped."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            if key in out:
                v = out[key] + c1 * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
            else:
                out[key] = c1 * c2
    return out


# Few keys and small coefficients of three kinds (ints, integral
# Fractions, Fractions over 2 or 3), so partial sums cancel, keys
# restart and sums of Fractions come out integral often.
small_ints = st.sampled_from((-3, -2, -1, 1, 2, 3))
small_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(small_ints, small_ints.map(Fraction),
              st.builds(Fraction, small_ints, st.sampled_from((2, 3)))),
    min_size=6, max_size=16)


def assert_matches_mul_pair(a, b):
    expected = repr(list(canonical(mul_pair(a, b)).items()))
    assert repr(list(on_numerators(mul_dict, a, b).items())) == expected


@given(small_terms, small_terms, st.booleans())
@settings(max_examples=500, deadline=None)
def test_mul_dict_matches_fraction_arithmetic(a, b, square):
    """Same terms and key order as the loop on the coefficients
    themselves, and each coefficient as exact.as_coeff gives its
    value."""
    assert_matches_mul_pair(a, a if square else b)


@given(st.one_of(int_terms, fraction_terms, mixed_terms),
       st.one_of(int_terms, fraction_terms, mixed_terms))
@settings(max_examples=150, deadline=None)
def test_mul_dict_matches_fraction_arithmetic_on_wide_coefficients(a, b):
    assert_matches_mul_pair(a, b)


@given(st.lists(st.one_of(int_terms, fraction_terms, mixed_terms),
                min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_add_terms_in_one_pass_matches_pairwise_sums(parts):
    """Same terms and key order as summing in pairs, cancellations
    included, and each coefficient as exact.as_coeff gives its value;
    no operand is modified.  add_terms takes canonical operands, as
    every SparsePoly2 holds, so the drawn ones go through as_coeff."""
    parts = [canonical(p) for p in parts]
    # Negated copies make terms cancel and come back.
    parts = parts + [{k: -c for k, c in parts[0].items()}, parts[-1]]
    before = [repr(list(p.items())) for p in parts]
    expected = parts[0]
    for part in parts[1:]:
        expected = add_pair(expected, part)
    out = _kernels.add_terms(*parts)
    assert (repr(list(out.items()))
            == repr(list(canonical(expected).items())))
    assert [repr(list(p.items())) for p in parts] == before


def test_poly_sum_copies_only_the_first_operand(monkeypatch):
    calls = []
    inner = _kernels.add_terms
    monkeypatch.setattr(_kernels, "add_terms",
                        lambda *ts: calls.append(len(ts)) or inner(*ts))
    parts = [SparsePoly2({(i, 0): 1, (0, i + 1): 2}) for i in range(1, 5)]
    total = poly_sum(parts)
    assert calls == [4]
    expected = parts[0]
    for p in parts[1:]:
        expected = expected + p
    assert repr(list(total.items())) == repr(list(expected.items()))
