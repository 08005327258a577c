"""Kernels for exact sparse bivariate polynomial arithmetic.

A polynomial is a dict mapping exponent pairs (i, j) to nonzero exact
coefficients (int or Fraction).  add_terms, scale_terms and mul_terms
are the hot loops of the iteration oracle.

Every coefficient a kernel returns is canonical, by exact.as_coeff's
one rule: an int when its value is integral, a Fraction otherwise.  The
value alone fixes the type, so any two routes to the same polynomial
give the same dict up to key order.

mul_terms has two paths.  Both run on the operands' integer numerators
(_clear_denominators; an all-int operand is its own) and divide each
output coefficient by the product of the two denominators once, at the
end, except where the dict loop scales by a one-term operand.  The dict
loop multiplies term by term.  Kronecker substitution (Kronecker
1882; Harvey, J. Symbolic Comput. 44, 2009) packs each operand into one
big number with a fixed-width signed slot of decimal digits per cell of
the product's bounding box, multiplies the two numbers once, and reads
the product's coefficients back out of the slots.  The packed numbers
are Decimals built from digit strings: the C decimal module (libmpdec)
multiplies large operands by a number-theoretic transform, in
quasi-linear time, where CPython's ints use Karatsuba.  Decimal <-> str
is linear; int <-> Decimal is not, so no int is converted whole.  A slot
is read with int(str), so a product whose slots would need more digits
than sys.get_int_max_str_digits() allows goes to the dict loop.
mul_terms picks the path from the operands' shape alone.  Every step is
exact integer or exact decimal arithmetic.

The oracle's products never reach the rational paths: germ.substitute
clears the denominators of its operands once per call and hands every
product int operands.  A Fraction operand comes only from a direct
product of rational polynomials: poly.poly_mul, poly.poly_pow and
SparsePoly2's `*` and `**`.
"""

from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, DivisionByZero,
                     Inexact, InvalidOperation, Overflow)
from fractions import Fraction
from math import lcm

from .exact import as_coeff, int_max_str_digits

BACKEND = "pure"

# The dict loop's cost grows with the multiply-adds (len(a) * len(b)),
# Kronecker's with the cells of the product's bounding box times their
# digits.  Timed on every product the benchmark workloads make, the
# total was least at this many multiply-adds per cell (fuzz_campaign's
# 6,956 products: 1.503 s, against 1.509 s at 4 and 1.517 s at 6), and
# a floor on the multiply-adds changed it by under 0.1%.  The transform
# keeps the bound flat in size: a 2,802 x 2,801-term product spread to
# 5.3 multiply-adds per cell took 3.9 s against the dict loop's 5.0 s.
# The bound holds for Fraction products too, since both paths do int
# arithmetic on the cleared numerators and build one coefficient per
# output term: over the 18 Fraction products oracle_rational made
# before germ.substitute cleared denominators, the total was flat from 2
# to 12 per cell, and below the bound the dict loop won
# (17 x 17 terms at 0.80 per cell: 0.27 ms against 0.60 ms by
# Kronecker; 87 x 17 at 1.89: 1.13 ms against 1.76 ms).
KRONECKER_MIN_WORK_PER_CELL = 5
# The box has at least as many cells as the larger operand has terms,
# so a product whose smaller operand has fewer terms than this cannot
# reach KRONECKER_MIN_WORK_PER_CELL, and mul_terms skips its box.
KRONECKER_MIN_TERMS = KRONECKER_MIN_WORK_PER_CELL

# Decimal arithmetic that never rounds: an inexact result raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, InvalidOperation, DivisionByZero, Overflow])


def add_terms(a, *rest):
    """Sum of term dicts in one pass, canonical; zero coefficients are
    dropped.

    Only the first operand is copied, and every further one is added
    into that copy in turn, so the largest should come first.
    """
    out = dict(a)
    for key, c in a.items():  # as_coeff inlined: most terms are a's
        if type(c) is not int and c.denominator == 1:
            out[key] = c.numerator
    get = out.get
    for b in rest:
        for key, c in b.items():
            v = get(key)
            if v is None:
                out[key] = c if type(c) is int else as_coeff(c)
            else:
                v = v + c
                if v:
                    out[key] = v if type(v) is int else as_coeff(v)
                else:
                    del out[key]
    return out


def scale_terms(a, c):
    """Term dict scaled by a nonzero coefficient, canonical."""
    return {key: as_coeff(v * c) for key, v in a.items()}


def mul_terms(a, b):
    """Product of two term dicts; cancellations are dropped.

    Products whose multiply-adds reach KRONECKER_MIN_WORK_PER_CELL per
    cell of their bounding box go through mul_kronecker when it takes
    them; all others go through mul_dict.
    """
    if min(len(a), len(b)) >= KRONECKER_MIN_TERMS:
        box_a, box_b = _box(a), _box(b)
        rows, width = _product_shape(box_a, box_b)
        if rows * width * KRONECKER_MIN_WORK_PER_CELL <= len(a) * len(b):
            out = mul_kronecker(a, b, box_a, box_b)
            if out is not None:
                return out
    return mul_dict(a, b)


def mul_dict(a, b):
    """Product of two term dicts by the term-by-term dict loop.

    The loop runs over the larger operand's terms within each of the
    smaller one's and drops a key whose partial sum cancels.  A
    one-term operand scales the other.  Otherwise the loop runs on the
    operands' integer numerators (_clear_denominators) and divides each
    coefficient by the product of the two denominators once, at the
    end.  Either way every coefficient is canonical (exact.as_coeff).
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((i1, j1), c1), = a.items()
        out = {}
        for (i2, j2), c2 in b.items():
            c = c1 * c2
            out[(i1 + i2, j1 + j2)] = c if type(c) is int else as_coeff(c)
        return out
    den_a, num_a = _clear_denominators(a)
    den_b, num_b = (den_a, num_a) if b is a else _clear_denominators(b)
    out = {}
    get = out.get
    for (i1, j1), n1 in num_a.items():
        for (i2, j2), n2 in num_b.items():
            key = (i1 + i2, j1 + j2)
            v = get(key)
            if v is None:
                out[key] = n1 * n2
            else:
                v = v + n1 * n2
                if v:
                    out[key] = v
                else:
                    del out[key]
    den = den_a * den_b
    if den == 1:
        return out
    return {key: Fraction(v, den) if v % den else v // den
            for key, v in out.items()}


def mul_kronecker(a, b, box_a=None, box_b=None):
    """Product of two term dicts by Kronecker substitution.

    Runs on the operands' integer numerators, like mul_dict, and returns
    the dict mul_dict returns, canonical coefficients included, or None
    when a slot would need more decimal digits than int <-> str
    conversion allows (exact.int_max_str_digits).  box_a and box_b, when
    given, are the operands' _box.
    """
    if not a or not b:
        return {}
    den_a, num_a = _clear_denominators(a)
    den_b, num_b = (den_a, num_a) if b is a else _clear_denominators(b)
    den = den_a * den_b

    # No product coefficient exceeds sum|a| * max|b| or max|a| * sum|b|
    # in absolute value, so a slot of `digits` digits holds each one,
    # biased by half, without carries.
    abs_a, abs_b = list(map(abs, num_a.values())), list(map(abs, num_b.values()))
    bound = min(sum(abs_a) * max(abs_b), max(abs_a) * sum(abs_b))
    digits = _slot_digits(bound)
    limit = int_max_str_digits()
    if limit and digits > limit:
        return None

    box_a = box_a or _box(a)
    box_b = box_b or _box(b)
    rows, width = _product_shape(box_a, box_b)
    cells = rows * width
    ctx = _EXACT
    packed_a = _pack(num_a, box_a, width, digits)
    packed_b = packed_a if b is a else _pack(num_b, box_b, width, digits)
    product = ctx.multiply(packed_a, packed_b)
    del packed_a, packed_b
    # Adding `half` to every slot maps a coefficient v, |v| < half, to
    # the slot v + half in [1, 10**digits), so the slots decode
    # independently.  The top slot may have fewer digits, hence zfill.
    zero = "5" + "0" * (digits - 1)
    product = ctx.add(product, _repeat(zero, cells))
    end = cells * digits
    data = str(product)
    del product
    data = data.zfill(end)
    # Row i (slots i * width .. i * width + width - 1) is the `span`
    # characters ending at end - i * span, its highest j first.  An
    # all-zero row is skipped with one comparison.
    half = 5 * 10 ** (digits - 1)
    span = width * digits
    zero_row = zero * width
    j0 = box_a[2] + box_b[2]
    columns = range(j0 + width - 1, j0 - 1, -1)
    starts = range(0, span, digits)
    out = {}
    i = box_a[0] + box_b[0]
    for at in range(end, 0, -span):
        row = data[at - span:at]
        if row != zero_row:
            for j, start in zip(columns, starts):
                slot = row[start:start + digits]
                if slot != zero:
                    v = int(slot) - half
                    if den != 1:
                        v = Fraction(v, den) if v % den else v // den
                    out[(i, j)] = v
        i += 1
    return out


def _box(a):
    """(min i, max i, min j, max j) over a nonempty term dict."""
    i_s, j_s = zip(*a)
    return min(i_s), max(i_s), min(j_s), max(j_s)


def _product_shape(box_a, box_b):
    """(rows, width): the i- and j-extent of the product's bounding box."""
    return (box_a[1] - box_a[0] + box_b[1] - box_b[0] + 1,
            box_a[3] - box_a[2] + box_b[3] - box_b[2] + 1)


def _clear_denominators(a):
    """(den, numerators): den is the lcm of the coefficients'
    denominators and numerators[key] = a[key] * den, an int.  An
    all-int operand is its own numerators, with den 1."""
    if all(type(c) is int for c in a.values()):
        return 1, a
    den = lcm(*(c.denominator for c in a.values()))
    return den, {key: c.numerator * (den // c.denominator)
                 for key, c in a.items()}


def _slot_digits(bound):
    """Fewest decimal digits d with 5 * 10**(d - 1) > bound >= 1, that
    is, the digit count of 2 * bound."""
    x = 2 * bound
    # 1233 / 4096 < log10(2), so this never exceeds the digit count.
    digits = x.bit_length() * 1233 >> 12
    power = 10 ** digits
    while power <= x:
        digits += 1
        power *= 10
    return digits


def _repeat(block, count):
    """The Decimal whose digit string is `count` copies of `block`.

    Built by doubling, so no digit string of the full length exists.
    """
    ctx = _EXACT
    out, size = ctx.create_decimal(0), 0
    unit, span = ctx.create_decimal(block), len(block)
    while True:
        if count & 1:
            out = ctx.add(out, ctx.scaleb(unit, size))
            size += span
        count >>= 1
        if not count:
            return out
        unit = ctx.add(unit, ctx.scaleb(unit, span))
        span *= 2


def _pack(nums, box, width, digits):
    """A Decimal holding each coefficient of nums in a signed slot of
    `digits` decimal digits, slot (i - min i) * width + (j - min j).

    The positive and the negative coefficients each go into one digit
    string, top slot first, joined from runs: a coefficient zero-filled
    to `digits` digits, then the zeros of the empty slots below it.
    """
    i0, j0 = box[0], box[2]
    slots = {(i - i0) * width + j - j0: c for (i, j), c in nums.items()}
    pos, neg = [], []
    pos_at = neg_at = 0  # the slot last written to each string
    for m in sorted(slots, reverse=True):
        c = slots[m]
        if c > 0:
            if pos:
                pos.append("0" * ((pos_at - m - 1) * digits))
            pos.append(str(c).zfill(digits))
            pos_at = m
        else:
            if neg:
                neg.append("0" * ((neg_at - m - 1) * digits))
            neg.append(str(-c).zfill(digits))
            neg_at = m
    pos.append("0" * (pos_at * digits))
    neg.append("0" * (neg_at * digits))
    create = _EXACT.create_decimal
    return _EXACT.subtract(create("".join(pos) or "0"),
                           create("".join(neg) or "0"))
