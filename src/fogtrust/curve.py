"""secp256k1 arithmetic.

Affine points at the API surface; Jacobian and XYZZ coordinates internally.

A point that gets multiplied repeatedly gets a precomputed table. Every
table has one format: signed windows over the GLV split. secp256k1 has an
endomorphism lambda * (x, y) = (beta * x, y), so each scalar k splits as
k = k1 + k2 * lambda (mod order) with both halves below 2^128 in magnitude
(Gallant, Lambert and Vanstone, CRYPTO 2001; the split constants are
libsecp256k1's). A table of width w holds, for each w-bit row i of a half,
the affine multiples d * 2^(w*i) * P for d = 1..2^(w-1). Digits are recoded
into (-2^(w-1), 2^(w-1)], so a negative digit costs only y -> p - y, and
the lambda half reuses the same rows: its terms are summed apart and the
sum is mapped once by x -> beta * x. A scalar already below 2^128 (a
ring challenge) is its own first half: it takes no split and no mapped
sum, so on a width-8 table it costs at most 17 terms (16 rows and a carry
into the one-entry top row) where a split scalar costs up to 34. A
multiplication is then one mixed addition per nonzero digit, summed in
XYZZ coordinates, and one inversion.
Each entry is one packed int, x << 256 | y, split again by a shift and a
mask when it is read; two separate ints per entry take about 30% more
memory.

Tables live in one module-level cache keyed by coordinates, not on Point
objects, so a key decoded afresh from bytes finds the table of an equal
key decoded earlier. The policy:

- ``mult_add``, the one variable-base product, counts one use of its
  point per call; a point gets a width-8 table (16 rows and a one-entry
  top row, 2049 entries, about 213 KB) on its third use. A signature's
  nonce point is counted like any other, so it gets a table only when
  one signature is recovered three times.
- The cache holds at most ``_CACHE_ENTRIES`` (128) tables and as many
  admission counts, each evicted least recently used first. 128 is above
  every key set the workloads keep in use at once, so a full cache is
  about 27 MB.
- ``GENERATOR``, the object every fixed-base multiplication passes, keeps
  its own width-13 table (9 rows and a 2048-entry top row, 38912
  entries, about 4 MB) outside the cache. It is built on the first
  product rather than at import, so processes that never touch the
  curve never pay for it, and it is never evicted. A
  separately built copy of the generator is counted like any other
  point.

A point without a table (any point before its third use) is multiplied
over the same GLV split: the odd multiples P, 3P, ..., 15P are brought to
one common Z with multiplications only, which makes them affine on an
isomorphic curve y^2 = x^3 + 7 * scale^6; the lambda column is beta * x
of the same rows, and the two halves' width-5 signed digits run
interleaved on that curve, about 128 Jacobian doublings and 43 mixed
additions in all, before the final Z times ``scale`` maps the sum back.
A cold product thus takes no inversion of its own.

``mult_add`` computes s * G + c * P in a single accumulator that ends in
one inversion, whether or not P has a table. ``scalar_mult`` is that sum
with s = 0 and ``link_x``, the ring-signature link, its x-coordinate.
Every product leaves its accumulator through ``_to_point``, so each
result is a ``Point``, curve-checked there.

Infinity is represented as None at the public API; it never appears as a
stored key or signature component.
"""

from __future__ import annotations

from collections import OrderedDict

from .errors import InvalidPoint

FIELD_PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
CURVE_B = 7


# GLV endomorphism: LAMBDA * (x, y) = (BETA * x, y); the lattice basis
# (A1, B1), (A2, B2) of {(a, b) : a + b * LAMBDA = 0 mod order}
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_BETA2 = _BETA * _BETA % FIELD_PRIME
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1
_HALF_BITS = 128  # both halves of the split stay below 2^128 in magnitude

_MEMBER_WIDTH = 8
_GENERATOR_WIDTH = 13
_TABLE_ON_USE = 3
# Above every key set in use at once, so a warm key is never evicted by
# its peers: protocol-mix keeps 73 long-lived keys (64 devices, 8 fogs, the
# oracle) plus the fogs it re-registers, and contract-verify's rings draw
# from 64 devices. At about 213 KB a member table, a full cache is 27 MB.
_CACHE_ENTRIES = 128
_COORDINATE_BITS = 256
_COORDINATE_MASK = (1 << _COORDINATE_BITS) - 1

_generator_table = None
# member tables and the admission counts of points without one, both keyed
# by (x, y) and in least-recently-used order
_tables = OrderedDict()
_use_counts = OrderedDict()

# XYZZ accumulator (X, Y, ZZ, ZZZ) for x = X / ZZ, y = Y / ZZZ; ZZ == 0
# is infinity
_INFINITY = (0, 0, 0, 0)


class Point:
    """A point on secp256k1 (never infinity)."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        # type() rather than isinstance(): True is an int but not a coordinate
        if not (type(x) is int and type(y) is int):
            raise InvalidPoint("coordinates must be integers")
        if not (0 <= x < FIELD_PRIME and 0 <= y < FIELD_PRIME):
            raise InvalidPoint("coordinate out of field range")
        if (y * y - (x * x * x + CURVE_B)) % FIELD_PRIME:
            raise InvalidPoint("point not on curve")
        self.x = x
        self.y = y

    def __eq__(self, other):
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"Point(x={self.x:#x}, y={self.y:#x})"

    def to_bytes(self) -> bytes:
        """64-byte big-endian x || y."""
        return self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Point":
        if len(raw) != 64:
            raise InvalidPoint(f"expected 64 bytes, got {len(raw)}")
        return cls(int.from_bytes(raw[:32], "big"), int.from_bytes(raw[32:], "big"))


# ------------------------------------------------------------------
# Jacobian helpers. A Jacobian point is a tuple (X, Y, Z) with Z != 0.
# secp256k1 has odd order, so no finite point has y == 0 and doubling a
# finite point never yields infinity.
# ------------------------------------------------------------------


def _j_double(pt):
    X1, Y1, Z1 = pt
    p = FIELD_PRIME
    YY = Y1 * Y1 % p
    S = 4 * X1 * YY % p
    M = 3 * X1 * X1 % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * YY * YY) % p
    Z3 = 2 * Y1 * Z1 % p
    return (X3, Y3, Z3)


def _squarings(t, n):
    """t^(2^n) mod p."""
    p = FIELD_PRIME
    for _ in range(n):
        t = t * t % p
    return t


def _sqrt(a):
    """a^((p+1)/4) mod p: a square root of a when a has one.

    libsecp256k1's addition chain, where x_n is a^(2^n - 1): the exponent
    is 223 ones, a zero, 22 ones, four zeros, two ones and two zeros in
    binary, reached in 253 squarings and 13 multiplications.
    """
    p = FIELD_PRIME
    x2 = a * a % p * a % p
    x3 = x2 * x2 % p * a % p
    x6 = _squarings(x3, 3) * x3 % p
    x9 = _squarings(x6, 3) * x3 % p
    x11 = _squarings(x9, 2) * x2 % p
    x22 = _squarings(x11, 11) * x11 % p
    x44 = _squarings(x22, 22) * x22 % p
    x88 = _squarings(x44, 44) * x44 % p
    x176 = _squarings(x88, 88) * x88 % p
    x220 = _squarings(x176, 44) * x44 % p
    x223 = _squarings(x220, 3) * x3 % p
    t = _squarings(x223, 23) * x22 % p
    t = _squarings(t, 6) * x2 % p
    return _squarings(t, 2)


def _batch_inverse(values):
    """Modular inverses of many nonzero field elements, one inversion."""
    p = FIELD_PRIME
    prefix = [1] * (len(values) + 1)
    for i, v in enumerate(values):
        prefix[i + 1] = prefix[i] * v % p
    inv = pow(prefix[-1], -1, p)
    out = [None] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


# ------------------------------------------------------------------
# Signed-window GLV tables
# ------------------------------------------------------------------


def _glv_split(k):
    """(k1, k2) with k1 + k2 * LAMBDA = k (mod order), |k1|, |k2| < 2^128.

    Rounds k against the short lattice basis; k must be in [0, order).
    """
    half_order = CURVE_ORDER >> 1
    c1 = (_B2 * k + half_order) // CURVE_ORDER
    c2 = (-_B1 * k + half_order) // CURVE_ORDER
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _build_table(x, y, width):
    """(width, entries): entry row * 2^(width-1) + d - 1 is d * 2^(width*row) * P,
    packed as x << 256 | y.

    Full rows hold d = 1..2^(width-1). A half below 2^_HALF_BITS leaves
    the top row at most 2^(_HALF_BITS - width * full rows) (its carry
    included), so the top row stops there.

    The row bases come from Jacobian doublings and one batch normalization;
    the rows then fill in parallel in affine form, doubling the known span
    of each row per step (d + m from d and m), one batched inversion a step.
    """
    p = FIELD_PRIME
    half = 1 << (width - 1)
    full_rows = _HALF_BITS // width
    lengths = [half] * full_rows + [1 << (_HALF_BITS - width * full_rows)]
    base = (x, y, 1)
    bases = [base]
    for _ in range(full_rows):
        for _ in range(width):
            base = _j_double(base)
        bases.append(base)
    zinvs = _batch_inverse([b[2] for b in bases])
    xs = []
    ys = []
    for (X, Y, _), zinv in zip(bases, zinvs):
        zinv2 = zinv * zinv % p
        xs.append([X * zinv2 % p])
        ys.append([Y * zinv2 % p * zinv % p])

    span = 1
    while span < half:
        # entry span + j for j = 1..span: add entry span to entry j; the
        # last one (j == span) is a doubling
        rows = [(rx, ry) for rx, ry, length in zip(xs, ys, lengths)
                if length > span]
        denominators = []
        for rx, ry in rows:
            xm = rx[span - 1]
            for j in range(span - 1):
                denominators.append(rx[j] - xm)
            denominators.append(2 * ry[span - 1])
        inverses = iter(_batch_inverse(denominators))
        for rx, ry in rows:
            xm = rx[span - 1]
            ym = ry[span - 1]
            for j in range(span):
                xj = rx[j]
                yj = ry[j]
                if j == span - 1:
                    slope = 3 * xm * xm % p * next(inverses) % p
                else:
                    slope = (yj - ym) * next(inverses) % p
                x3 = (slope * slope - xj - xm) % p
                rx.append(x3)
                ry.append((slope * (xj - x3) - yj) % p)
        span *= 2
    # each row is freed once packed, so the build peaks near the final size
    entries = []
    for row_x, row_y in zip(xs, ys):
        entries += [ex << _COORDINATE_BITS | ey for ex, ey in zip(row_x, row_y)]
        row_x.clear()
        row_y.clear()
    return (width, entries)


def _table_of(point):
    """point's table, or None while it has none; counts one use of point.

    GENERATOR's table is built on its first use. Any other point is counted
    by its coordinates and gets a table on its third use, however many
    separate Point objects carried those coordinates.
    """
    global _generator_table
    if point is GENERATOR:
        if _generator_table is None:
            _generator_table = _build_table(point.x, point.y, _GENERATOR_WIDTH)
        return _generator_table
    key = (point.x, point.y)
    table = _tables.get(key)
    if table is not None:
        _tables.move_to_end(key)
        return table
    uses = _use_counts.pop(key, 0) + 1
    if uses < _TABLE_ON_USE:
        _use_counts[key] = uses
        if len(_use_counts) > _CACHE_ENTRIES:
            _use_counts.popitem(last=False)
        return None
    table = _tables[key] = _build_table(point.x, point.y, _MEMBER_WIDTH)
    if len(_tables) > _CACHE_ENTRIES:
        _tables.popitem(last=False)
    return table


def _gather(k, table, plain, mapped):
    """Append the affine terms of k * P, k in [0, order), to plain (those
    of the first GLV half) and mapped (the second half, whose sum is still
    to be taken through the endomorphism). A k below 2^_HALF_BITS is its
    own first half and adds nothing to mapped."""
    width, entries = table
    half = 1 << (width - 1)
    full = half << 1
    mask = full - 1
    p = FIELD_PRIME
    low = _COORDINATE_MASK
    k1, k2 = (k, 0) if k >> _HALF_BITS == 0 else _glv_split(k)
    for k, terms in ((k1, plain), (k2, mapped)):
        negate = k < 0
        if negate:
            k = -k
        index = -1  # digit d of the current row is entry index + d
        while k:
            digit = k & mask
            k >>= width
            if digit:
                if digit > half:
                    entry = entries[index + full - digit]
                    k += 1
                    y = entry & low
                    if not negate:
                        y = p - y
                else:
                    entry = entries[index + digit]
                    y = entry & low
                    if negate:
                        y = p - y
                terms.append((entry >> _COORDINATE_BITS, y))
            index += half


def _accumulate(acc, terms):
    """acc plus every affine term, in XYZZ coordinates (10 multiplications
    per mixed addition)."""
    p = FIELD_PRIME
    X1, Y1, ZZ1, ZZZ1 = acc
    for x2, y2 in terms:
        H = x2 * ZZ1 % p - X1
        R = y2 * ZZZ1 % p - Y1
        if not H:
            # also reached from infinity, where every coordinate is 0
            if not ZZ1:
                X1, Y1, ZZ1, ZZZ1 = x2, y2, 1, 1
            elif R:
                X1, Y1, ZZ1, ZZZ1 = _INFINITY
            else:
                # the accumulator equals the term: double the term
                U = 2 * y2
                ZZ1 = U * U % p
                ZZZ1 = U * ZZ1 % p
                S = x2 * ZZ1 % p
                M = 3 * x2 * x2 % p
                X1 = (M * M - 2 * S) % p
                Y1 = (M * (S - X1) - ZZZ1 * y2) % p
            continue
        HH = H * H % p
        HHH = H * HH % p
        Q = X1 * HH % p
        X1 = (R * R - HHH - Q - Q) % p
        Y1 = (R * (Q - X1) - Y1 * HHH) % p
        ZZ1 = ZZ1 * HH % p
        ZZZ1 = ZZZ1 * HHH % p
    return X1, Y1, ZZ1, ZZZ1


def _table_sum(start, products):
    """start + k * P for each (k, table of P) in products, in XYZZ, k in
    [0, order).

    The terms of the second GLV halves are summed first and the sum mapped
    once by the endomorphism (x -> beta * x); start goes in through its
    inverse (x -> beta^2 * x) so that the same map restores it.
    """
    p = FIELD_PRIME
    plain = []
    mapped = []
    for k, table in products:
        _gather(k, table, plain, mapped)
    X, Y, ZZ, ZZZ = start
    X, Y, ZZ, ZZZ = _accumulate((X * _BETA2 % p, Y, ZZ, ZZZ), mapped)
    return _accumulate((X * _BETA % p, Y, ZZ, ZZZ), plain)


def _to_point(acc):
    """The Point an XYZZ accumulator holds, or None at infinity."""
    X, Y, ZZ, ZZZ = acc
    if not ZZ:
        return None
    p = FIELD_PRIME
    inv = pow(ZZ * ZZZ % p, -1, p)
    return Point(X * ZZZ % p * inv % p, Y * ZZ % p * inv % p)


# ------------------------------------------------------------------
# Points without a table: interleaved width-5 wNAF over the GLV split
# ------------------------------------------------------------------


def _odd_multiples(x, y):
    """(xs, ys, scale): P, 3P, ..., 15P for P = (x, y), affine on the curve
    y^2 = x^3 + 7 * scale^6, whose point (u, v) is (u / scale^2,
    v / scale^3) on secp256k1.

    2P = (X, Y, Z) in Jacobian form is affine on the isomorphic curve
    y^2 = x^3 + 7 * Z^6, reached by (x, y) -> (x * Z^2, y * Z^3). The chain
    P + 2P + 2P ... runs there in mixed additions, which never read the
    curve constant, and step i multiplies Z by its H_i. Walking back from
    15P, each earlier multiple is rescaled to the last one's Z by the
    product of the later H_i, so the whole column shares one Z (times that
    of 2P): no inversion is taken.
    """
    p = FIELD_PRIME
    dx, dy, dz = _j_double((x, y, 1))
    dz2 = dz * dz % p
    X1, Y1, Z1 = x * dz2 % p, y * dz2 % p * dz % p, 1
    xs = [X1]
    ys = [Y1]
    hs = []
    for _ in range(7):  # 3P, 5P, ..., 15P
        ZZ = Z1 * Z1 % p
        H = dx * ZZ % p - X1
        R = dy * ZZ % p * Z1 % p - Y1
        HH = H * H % p
        HHH = H * HH % p
        V = X1 * HH % p
        X1 = (R * R - HHH - 2 * V) % p
        Y1 = (R * (V - X1) - Y1 * HHH) % p
        Z1 = Z1 * H % p
        xs.append(X1)
        ys.append(Y1)
        hs.append(H)
    ratio = 1
    for i in range(6, -1, -1):  # 13P, 11P, ..., P
        ratio = ratio * hs[i] % p
        ratio2 = ratio * ratio % p
        xs[i] = xs[i] * ratio2 % p
        ys[i] = ys[i] * ratio2 % p * ratio % p
    return xs, ys, Z1 * dz % p


def _cold_xyzz(k, point):
    """k * point, k in [1, order), for a point without a table, as an XYZZ
    accumulator that _table_sum can start from.

    Each GLV half is recoded into width-5 signed digits: odd, below 16 in
    magnitude, at least five bits apart. A digit d of the first half adds
    d * P from the odd multiples; one of the second half adds d * lambda * P,
    the same row with x times beta. Both halves run interleaved from the top
    bit: one Jacobian doubling per bit and one mixed addition per digit.

    The mixed addition has no branch for meeting its own term or its
    negation, because neither can happen. Before it adds d * P (d odd,
    either sign) the accumulator is A * P + B * lambda * P, so a meeting
    puts (A - d, B) or (A + d, B) in the lattice that the split rounds
    against. (A, B) is (k1, k2) / 2^bit to within 2^5, and the split leaves
    (k1, k2) at most half a basis vector from the origin along each basis
    vector, so that lattice vector is 0 and A = +-d; but A is a multiple of
    2^5 there. Additions from the second half are the same with A and B
    swapped.

    The loop runs on the isomorphic curve of the odd multiples, since
    doublings and mixed additions never read the curve constant, and the
    endomorphism holds there too; the final Z times their scale maps the
    sum back to secp256k1.
    """
    p = FIELD_PRIME
    xs, ys, scale = _odd_multiples(point.x, point.y)
    terms = []  # (bit, x, y) of every addition
    for k, column in zip(_glv_split(k), (xs, [_BETA * v % p for v in xs])):
        negate = k < 0
        if negate:
            k = -k
        bit = 0
        while k:
            zeros = (k & -k).bit_length() - 1
            k >>= zeros
            bit += zeros
            digit = k & 31
            if digit > 16:
                digit -= 32
            k = (k - digit) >> 5
            row = abs(digit) >> 1
            y = ys[row]
            if (digit < 0) != negate:
                y = p - y
            terms.append((bit, column[row], y))
            bit += 5
    terms.sort(reverse=True)
    bit, X, Y = terms[0]
    Z = 1
    for next_bit, x2, y2 in terms[1:] + [(0, None, None)]:
        for _ in range(bit - next_bit):
            YY = Y * Y % p
            S = 4 * X * YY % p
            M = 3 * X * X % p
            Z = 2 * Y * Z % p
            X = (M * M - 2 * S) % p
            Y = (M * (S - X) - 8 * YY * YY) % p
        if x2 is None:
            break
        bit = next_bit
        ZZ = Z * Z % p
        H = x2 * ZZ % p - X
        R = y2 * ZZ % p * Z % p - Y
        HH = H * H % p
        HHH = H * HH % p
        V = X * HH % p
        X = (R * R - HHH - 2 * V) % p
        Y = (R * (V - X) - Y * HHH) % p
        Z = Z * H % p
    Z = Z * scale % p
    ZZ = Z * Z % p
    return X, Y, ZZ, ZZ * Z % p


def mult_add(s: int, c: int, point: Point):
    """s * G + c * point, or None when that sum is infinity; s and c are
    any integers.

    Each call counts one use of point towards a table. Every table term of
    both products goes into one XYZZ accumulator, which ends in one
    inversion; a point without a table starts it from its cold product
    instead.
    """
    c %= CURVE_ORDER
    products = [(s % CURVE_ORDER, _table_of(GENERATOR))]
    start = _INFINITY
    table = _table_of(point)
    if table is not None:
        products.append((c, table))
    elif c:
        start = _cold_xyzz(c, point)
    return _to_point(_table_sum(start, products))


def scalar_mult(k: int, point: Point):
    """k * point, or None when k is a multiple of the group order."""
    return mult_add(0, k, point)


def link_x(s: int, c: int, point: Point):
    """x of mult_add(s, c, point), or None when that sum is infinity:
    the ring-signature link."""
    link = mult_add(s, c, point)
    return None if link is None else link.x


def point_add(a, b):
    """a + b; None is the identity."""
    terms = [(t.x, t.y) for t in (a, b) if t is not None]
    return _to_point(_accumulate(_INFINITY, terms))


GENERATOR = Point(
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)
