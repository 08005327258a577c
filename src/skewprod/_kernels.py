"""Kernels for exact sparse bivariate polynomial arithmetic.

A polynomial is a dict mapping exponent pairs (i, j) to nonzero exact
coefficients (int or Fraction).  add_terms, scale_terms and mul_terms
are the hot loops of the iteration oracle.

mul_terms has two paths.  The dict loop multiplies term by term through
the coefficient objects themselves.  Kronecker substitution (Kronecker
1882; Harvey, J. Symbolic Comput. 44, 2009) packs each operand into one
big int with a fixed-width signed slot per cell of the product's
bounding box, multiplies the two ints once, and reads the product's
coefficients back out of the slots.  mul_terms picks the path from the
operands alone; both give the same dict, coefficient types included.
Every step is integer arithmetic, so the results are exact.
"""

from fractions import Fraction
from itertools import compress
from math import lcm

BACKEND = "pure"

# Below this many multiply-adds (len(a) * len(b)) packing and decoding
# cost more than the dict loop they replace.
KRONECKER_MIN_WORK = 4096
# The dict loop's cost grows with the multiply-adds, Kronecker's with
# the cells of the product's bounding box.  Measured on the oracle's
# products, Kronecker wins while there are at least this many
# multiply-adds per cell ...
KRONECKER_MIN_WORK_PER_CELL = 4
# ... and while cells**1.5 / work stays below this: CPython multiplies
# big ints by Karatsuba, about cells**1.58, so on products of millions
# of multiply-adds the first bound alone lets Kronecker lose (7.8M
# multiply-adds at 10 per cell: 10.2 s against the dict loop's 5.3 s).
KRONECKER_MAX_KARATSUBA_RATIO = 32


def add_terms(a, b):
    """Sum of two term dicts; zero coefficients are dropped."""
    out = dict(a)
    get = out.get
    for key, c in b.items():
        v = get(key)
        if v is None:
            out[key] = c
        else:
            v = v + c
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def scale_terms(a, c):
    """Term dict scaled by a nonzero coefficient."""
    return {key: v * c for key, v in a.items()}


def mul_terms(a, b):
    """Product of two term dicts; cancellations are dropped.

    Large products whose bounding box is dense enough go through
    mul_kronecker when their coefficient types allow it, all others
    through mul_dict.
    """
    work = len(a) * len(b)
    if work >= KRONECKER_MIN_WORK:
        rows, width = _product_shape(_box(a), _box(b))
        cells = rows * width
        if (cells * KRONECKER_MIN_WORK_PER_CELL <= work
                and cells ** 3 <= (KRONECKER_MAX_KARATSUBA_RATIO * work) ** 2):
            out = mul_kronecker(a, b)
            if out is not None:
                return out
    return mul_dict(a, b)


def mul_dict(a, b):
    """Product of two term dicts by the term-by-term dict loop.

    A coefficient of the product is an int exactly when every product
    that contributed to it was int * int.
    """
    if len(a) > len(b):
        a, b = b, a
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


def mul_kronecker(a, b):
    """Product of two term dicts by Kronecker substitution.

    Returns the dict mul_dict returns, coefficient types included, or
    None when the types of the operands' coefficients do not fix the
    type of every product coefficient.  They do in two cases: both
    operands all-int (the product is all-int) and one operand
    all-Fraction (the product is all-Fraction; Fraction arithmetic
    never turns back into int).
    """
    if not a or not b:
        return {}
    types_a, types_b = set(map(type, a.values())), set(map(type, b.values()))
    if types_a == types_b == {int}:
        den = None
        num_a, num_b = a, b
    elif ({Fraction} in (types_a, types_b)
          and types_a | types_b <= {int, Fraction}):
        den_a, num_a = _clear_denominators(a)
        den_b, num_b = _clear_denominators(b)
        den = den_a * den_b
    else:
        return None

    box_a, box_b = _box(a), _box(b)
    rows, width = _product_shape(box_a, box_b)
    cells = rows * width
    # No product coefficient sums more than min(len(a), len(b)) terms,
    # so this bound plus a sign bit fits every slot without carries.
    bound = (min(len(a), len(b)) * max(map(abs, num_a.values()))
             * max(map(abs, num_b.values())))
    size = (bound.bit_length() + 8) // 8
    packed_a = _pack(num_a, box_a, width, size)
    packed_b = packed_a if b is a else _pack(num_b, box_b, width, size)

    # Adding `half` to every slot maps a coefficient v, |v| < half, to
    # the unsigned slot v + half, so the slots decode independently.
    half = 1 << (8 * size - 1)
    zero = half.to_bytes(size, "little")
    end = cells * size
    data = (packed_a * packed_b
            + int.from_bytes(zero * cells, "little")).to_bytes(end, "little")
    nonzero = map(zero.__ne__, map(data.__getitem__, map(
        slice, range(0, end, size), range(size, end + size, size))))
    i0, j0 = box_a[0] + box_b[0], box_a[2] + box_b[2]
    from_bytes = int.from_bytes
    out = {}
    for m in compress(range(cells), nonzero):
        i, j = divmod(m, width)
        at = m * size
        v = from_bytes(data[at:at + size], "little") - half
        out[(i0 + i, j0 + j)] = v if den is None else Fraction(v, den)
    return out


def _box(a):
    """(min i, max i, min j, max j) over a nonempty term dict."""
    return (min(i for i, _ in a), max(i for i, _ in a),
            min(j for _, j in a), max(j for _, j in a))


def _product_shape(box_a, box_b):
    """(rows, width): the i- and j-extent of the product's bounding box."""
    return (box_a[1] - box_a[0] + box_b[1] - box_b[0] + 1,
            box_a[3] - box_a[2] + box_b[3] - box_b[2] + 1)


def _clear_denominators(a):
    """(den, numerators): den is the lcm of the coefficients'
    denominators and numerators[key] = a[key] * den, an int."""
    den = lcm(*(c.denominator for c in a.values()))
    return den, {key: c.numerator * (den // c.denominator)
                 for key, c in a.items()}


def _pack(nums, box, width, size):
    """One int holding each coefficient of nums in a signed slot of
    `size` bytes, slot (i - min i) * width + (j - min j)."""
    i0, i1, j0, j1 = box
    span = ((i1 - i0) * width + j1 - j0 + 1) * size
    pos = bytearray(span)
    neg = bytearray(span)
    for (i, j), c in nums.items():
        at = ((i - i0) * width + j - j0) * size
        if c > 0:
            pos[at:at + size] = c.to_bytes(size, "little")
        else:
            neg[at:at + size] = (-c).to_bytes(size, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
