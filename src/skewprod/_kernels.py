"""Kernels for exact sparse bivariate polynomial arithmetic.

A polynomial is a dict mapping exponent pairs (i, j) to nonzero exact
coefficients (int or Fraction).  add_terms, scale_terms and mul_terms
are the hot loops of the iteration oracle.

Every coefficient a kernel returns is canonical, by exact.as_coeff's
one rule: an int when its value is integral, a Fraction otherwise.  The
value alone fixes the type, so any two routes to the same polynomial
give the same dict up to key order.

mul_terms has two paths, mul_dict and mul_kronecker, and both take and
return int term dicts only.  mul_terms clears each operand's
denominators once (_clear_denominators; an all-int operand is its own
numerators) and divides the int product once, in divided, the one place
a product's Fractions are made.  The dict loop multiplies term by term.
Kronecker substitution (Kronecker 1882; Harvey, J. Symbolic Comput. 44,
2009) packs each operand into one big number with a fixed-width signed
slot of decimal digits per cell of the product's bounding box,
multiplies the two numbers once, and reads the product's coefficients
back out of the slots.  The packed numbers are Decimals built from digit
strings: the C decimal module (libmpdec) multiplies large operands by a
number-theoretic transform, in quasi-linear time, where CPython's ints
use Karatsuba.  Decimal <-> str is linear; int <-> Decimal is not, so no
int is converted whole.  A slot is read with int(str), so a product
whose slots would need more digits than sys.get_int_max_str_digits()
allows goes to the dict loop.  mul_terms picks the path from the
operands' shape alone.  Every step is exact integer or exact decimal
arithmetic.
"""

from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, DivisionByZero,
                     Inexact, InvalidOperation, Overflow)
from fractions import Fraction
from math import lcm

from .exact import as_coeff, int_max_str_digits

# The dict loop's cost grows with the multiply-adds (len(a) * len(b)),
# Kronecker's with the cells of the product's bounding box times their
# digits.  Timed on every product the benchmark workloads make, the
# total was least at this many multiply-adds per cell (fuzz_campaign's
# 6,956 products: 1.503 s, against 1.509 s at 4 and 1.517 s at 6), and
# a floor on the multiply-adds changed it by under 0.1%.  The transform
# keeps the bound flat in size: a 2,802 x 2,801-term product spread to
# 5.3 multiply-adds per cell took 3.9 s against the dict loop's 5.0 s.
KRONECKER_MIN_WORK_PER_CELL = 5

# Decimal arithmetic that never rounds: an inexact result raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, InvalidOperation, DivisionByZero, Overflow])


def add_terms(a, *rest):
    """Sum of canonical term dicts in one pass, canonical; zero
    coefficients are dropped.

    Only the first operand is copied, and every further one is added
    into that copy in turn, so the largest should come first.  The
    operands' terms are stored as they are; only a sum of two goes
    through exact.as_coeff.
    """
    out = dict(a)
    get = out.get
    for b in rest:
        for key, c in b.items():
            v = get(key)
            if v is None:
                out[key] = c
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
    """Product of two term dicts, canonical; cancellations are dropped.

    Each operand is cleared to its integer numerators once
    (_clear_denominators), a squared one once for both sides.  Products
    whose multiply-adds reach KRONECKER_MIN_WORK_PER_CELL per cell of
    their bounding box go through mul_kronecker when it takes them; all
    others go through mul_dict.  The int product is divided by the
    product of the two denominators once, by divided.
    """
    square = b is a
    den_a, a = _clear_denominators(a)
    den_b, b = (den_a, a) if square else _clear_denominators(b)
    out = None
    # The box has at least as many cells as the larger operand has
    # terms, so a product whose smaller operand has fewer terms than
    # KRONECKER_MIN_WORK_PER_CELL cannot reach that many multiply-adds
    # per cell, and its box is skipped.
    if min(len(a), len(b)) >= KRONECKER_MIN_WORK_PER_CELL:
        box_a, box_b = _box(a), _box(b)
        rows, width = _product_shape(box_a, box_b)
        if rows * width * KRONECKER_MIN_WORK_PER_CELL <= len(a) * len(b):
            out = mul_kronecker(a, b, box_a, box_b)
    if out is None:
        out = mul_dict(a, b)
    return divided(out, den_a * den_b)


def divided(terms, den):
    """Term dict of ints with each coefficient divided by the positive
    int den, canonical: v // den where den divides v, Fraction(v, den)
    otherwise.  terms itself when den is 1."""
    if den == 1:
        return terms
    return {key: Fraction(v, den) if v % den else v // den
            for key, v in terms.items()}


def mul_dict(a, b):
    """Product of two int term dicts by the term-by-term dict loop.

    The loop runs over the larger operand's terms within each of the
    smaller one's and drops a key whose partial sum cancels; a one-term
    operand scales the other.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((i1, j1), c1), = a.items()
        return {(i1 + i2, j1 + j2): c1 * c2 for (i2, j2), c2 in b.items()}
    out = {}
    get = out.get
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            v = get(key)
            if v is None:
                out[key] = c1 * c2
            else:
                v = v + c1 * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out


def mul_kronecker(a, b, box_a=None, box_b=None):
    """Product of two int term dicts by Kronecker substitution.

    Returns the dict mul_dict returns, or None when a slot would need
    more decimal digits than int <-> str conversion allows
    (exact.int_max_str_digits).  box_a and box_b, when given, are the
    operands' _box.
    """
    if not a or not b:
        return {}
    # No product coefficient exceeds sum|a| * max|b| or max|a| * sum|b|
    # in absolute value, so a slot of `digits` digits holds each one,
    # biased by half, without carries.
    abs_a, abs_b = list(map(abs, a.values())), list(map(abs, b.values()))
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
    packed_a = _pack(a, box_a, width, digits)
    packed_b = packed_a if b is a else _pack(b, box_b, width, digits)
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
                    out[(i, j)] = int(slot) - half
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
