"""Curve arithmetic against the independent affine oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrust import curve, keys, signing
from fogtrust.errors import InvalidPoint

import oracles

# Doubled generator, frozen from the affine oracle output.
G2_X = 0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5
G2_Y = 0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A


def as_tuple(point):
    if point is None:
        return None
    return (point.x, point.y)


def from_tuple(pt):
    return curve.Point(pt[0], pt[1])


def empty_cache():
    curve._tables.clear()
    curve._use_counts.clear()


@pytest.fixture(autouse=True)
def _empty_table_cache():
    """Every test starts with no member table, so "cold" stays cold."""
    empty_cache()
    yield
    empty_cache()


def cold_point(pt):
    """A fresh Point for pt with the cache emptied: it has no table, and
    one use leaves it without one."""
    empty_cache()
    return from_tuple(pt)


def cold_mult(k, pt):
    """k * pt on a fresh Point, which has no table and stays without one."""
    point = cold_point(pt)
    got = as_tuple(curve.scalar_mult(k, point))
    assert curve._cached(point) is None
    return got


def test_curve_constants_match_reference():
    assert curve.FIELD_PRIME == oracles.FIELD_PRIME
    assert curve.CURVE_ORDER == oracles.CURVE_ORDER
    assert (curve.GENERATOR.x, curve.GENERATOR.y) == oracles.GEN


def test_generator_is_on_curve():
    g = curve.GENERATOR
    assert (g.y * g.y - (g.x ** 3 + 7)) % curve.FIELD_PRIME == 0


def test_doubling_the_generator_matches_frozen_vector():
    doubled = curve.scalar_mult(2, curve.GENERATOR)
    assert (doubled.x, doubled.y) == (G2_X, G2_Y)
    # and the oracle agrees with the frozen vector, so both routes are honest
    assert oracles.affine_add(oracles.GEN, oracles.GEN) == (G2_X, G2_Y)


def test_small_scalars_match_oracle():
    for k in range(1, 33):
        got = as_tuple(curve.scalar_mult(k, curve.GENERATOR))
        want = oracles.affine_scalar_mult(k, oracles.GEN)
        assert got == want, f"k={k}"


def test_random_scalars_match_oracle():
    rng = random.Random(0xC0FFEE)
    for _ in range(25):
        k = rng.randrange(1, curve.CURVE_ORDER)
        got = as_tuple(curve.scalar_mult(k, curve.GENERATOR))
        assert got == oracles.affine_scalar_mult(k, oracles.GEN)


def test_random_base_points_match_oracle():
    rng = random.Random(0xBEEF)
    for _ in range(8):
        base_k = rng.randrange(1, curve.CURVE_ORDER)
        base = oracles.affine_scalar_mult(base_k, oracles.GEN)
        k = rng.randrange(1, curve.CURVE_ORDER)
        assert cold_mult(k, base) == oracles.affine_scalar_mult(k, base)


def test_cached_table_path_matches_cold_path():
    # repeated multiplication against one point flips it onto the
    # precomputed-table path on its third use; results must not change
    rng = random.Random(7)
    point = from_tuple(oracles.affine_scalar_mult(12345, oracles.GEN))
    scalars = [rng.randrange(1, curve.CURVE_ORDER) for _ in range(8)]
    cold = [cold_mult(k, (point.x, point.y)) for k in scalars[:2]]
    empty_cache()
    warm = []
    for uses, k in enumerate(scalars, start=1):
        warm.append(as_tuple(curve.scalar_mult(k, point)))
        assert (curve._cached(point) is not None) == (uses >= 3), f"after use {uses}"
    for k, got in zip(scalars, warm):
        assert got == oracles.affine_scalar_mult(k, (point.x, point.y))
    for k, got, again in zip(scalars, cold, warm):
        assert got == oracles.affine_scalar_mult(k, (point.x, point.y))
        assert got == again


def test_scalar_mult_identity_cases():
    assert curve.scalar_mult(0, curve.GENERATOR) is None
    assert curve.scalar_mult(curve.CURVE_ORDER, curve.GENERATOR) is None
    five = curve.scalar_mult(5, curve.GENERATOR)
    wrapped = curve.scalar_mult(curve.CURVE_ORDER + 5, curve.GENERATOR)
    assert as_tuple(five) == as_tuple(wrapped)


def test_order_minus_one_is_negation():
    neg = curve.scalar_mult(curve.CURVE_ORDER - 1, curve.GENERATOR)
    assert neg.x == curve.GENERATOR.x
    assert neg.y == (-curve.GENERATOR.y) % curve.FIELD_PRIME


def test_point_add_identity_and_inverse():
    g = curve.GENERATOR
    assert as_tuple(curve.point_add(None, g)) == as_tuple(g)
    assert as_tuple(curve.point_add(g, None)) == as_tuple(g)
    assert curve.point_add(None, None) is None
    assert curve.point_add(g, curve.Point(g.x, curve.FIELD_PRIME - g.y)) is None


def test_point_add_matches_oracle_on_random_points():
    rng = random.Random(99)
    pts = [oracles.affine_scalar_mult(rng.randrange(1, curve.CURVE_ORDER), oracles.GEN)
           for _ in range(6)]
    for a in pts[:3]:
        for b in pts[3:]:
            got = as_tuple(curve.point_add(from_tuple(a), from_tuple(b)))
            assert got == oracles.affine_add(a, b)
    # doubling via point_add
    got = as_tuple(curve.point_add(from_tuple(pts[0]), from_tuple(pts[0])))
    assert got == oracles.affine_add(pts[0], pts[0])


def test_scalar_mult_distributes_over_addition():
    rng = random.Random(4242)
    for _ in range(6):
        k1 = rng.randrange(1, curve.CURVE_ORDER)
        k2 = rng.randrange(1, curve.CURVE_ORDER)
        lhs = curve.scalar_mult(k1 + k2, curve.GENERATOR)
        rhs = curve.point_add(curve.scalar_mult(k1, curve.GENERATOR),
                              curve.scalar_mult(k2, curve.GENERATOR))
        assert as_tuple(lhs) == as_tuple(rhs)


def test_point_rejects_off_curve_coordinates():
    with pytest.raises(InvalidPoint):
        curve.Point(1, 1)
    with pytest.raises(InvalidPoint):
        curve.Point(curve.GENERATOR.x, curve.GENERATOR.y + 1)
    with pytest.raises(InvalidPoint):
        curve.Point(-1, curve.GENERATOR.y)
    with pytest.raises(InvalidPoint):
        curve.Point(curve.FIELD_PRIME, curve.GENERATOR.y)
    # (1, y) is on the curve for y^2 = 8, but True is not a coordinate
    one = curve.Point(1, pow(8, (curve.FIELD_PRIME + 1) // 4, curve.FIELD_PRIME))
    with pytest.raises(InvalidPoint):
        curve.Point(True, one.y)


def test_point_bytes_roundtrip():
    point = curve.scalar_mult(777, curve.GENERATOR)
    raw = point.to_bytes()
    assert len(raw) == 64
    assert int.from_bytes(raw[:32], "big") == point.x
    back = curve.Point.from_bytes(raw)
    assert (back.x, back.y) == (point.x, point.y)


def test_point_from_bytes_rejects_garbage():
    with pytest.raises(InvalidPoint):
        curve.Point.from_bytes(b"\x00" * 63)
    with pytest.raises(InvalidPoint):
        curve.Point.from_bytes(b"\xff" * 64)


def test_point_equality_and_hash():
    a = curve.scalar_mult(9, curve.GENERATOR)
    b = curve.scalar_mult(9, curve.GENERATOR)
    c = curve.scalar_mult(10, curve.GENERATOR)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != (a.x, a.y)


# -- the GLV split and the fused ring link s*G + c*P --

def oracle_link_x(s, c, base):
    total = oracles.affine_add(oracles.affine_scalar_mult(s, oracles.GEN),
                               oracles.affine_scalar_mult(c, base))
    return None if total is None else total[0]


def warm_point(pt):
    point = from_tuple(pt)
    for _ in range(3):
        curve.scalar_mult(2, point)
    assert curve._cached(point) is not None
    return point


def test_glv_split_recombines_with_short_halves():
    rng = random.Random(0x61F)
    n = curve.CURVE_ORDER
    scalars = [0, 1, 2, n - 1, n - 2, n // 2, curve._LAMBDA, n - curve._LAMBDA,
               (1 << 128) - 1, 1 << 128, (1 << 255) % n]
    scalars += [rng.randrange(n) for _ in range(500)]
    negative_first = negative_second = 0
    for k in scalars:
        k1, k2 = curve._glv_split(k)
        assert (k1 + k2 * curve._LAMBDA - k) % n == 0, hex(k)
        # the tables cover halves below 2^_HALF_BITS (= 2^128)
        assert max(abs(k1), abs(k2)) < 1 << curve._HALF_BITS, hex(k)
        negative_first += k1 < 0
        negative_second += k2 < 0
    # both signs occur, so the negated-digit paths below are exercised
    assert negative_first and negative_second


def test_endomorphism_constants_match_oracle():
    lam_g = oracles.affine_scalar_mult(curve._LAMBDA, oracles.GEN)
    assert lam_g == (curve._BETA * oracles.GEN[0] % curve.FIELD_PRIME, oracles.GEN[1])


def test_scalars_with_negative_glv_halves_match_oracle():
    rng = random.Random(0xD161)
    base = oracles.affine_scalar_mult(424242, oracles.GEN)
    point = warm_point(base)
    signs = set()
    while len(signs) < 4:
        k = rng.randrange(1, curve.CURVE_ORDER)
        k1, k2 = curve._glv_split(k)
        sign = (k1 < 0, k2 < 0)
        if sign in signs:
            continue
        signs.add(sign)
        assert as_tuple(curve.scalar_mult(k, point)) == oracles.affine_scalar_mult(k, base)
        assert as_tuple(curve.scalar_mult(k, curve.GENERATOR)) == \
            oracles.affine_scalar_mult(k, oracles.GEN)


def test_link_x_matches_oracle_on_table_and_cold_points():
    rng = random.Random(0x117C)
    base = oracles.affine_scalar_mult(rng.randrange(1, curve.CURVE_ORDER), oracles.GEN)
    for _ in range(6):
        s = rng.randrange(curve.CURVE_ORDER)
        c = rng.randrange(curve.CURVE_ORDER)
        want = oracle_link_x(s, c, base)
        assert curve.link_x(s, c, warm_point(base)) == want
        cold = cold_point(base)
        assert curve.link_x(s, c, cold) == want
        assert curve._cached(cold) is None


def test_link_x_zero_scalars_and_scalars_past_the_order():
    rng = random.Random(0x0DE)
    n = curve.CURVE_ORDER
    base = oracles.affine_scalar_mult(987654321, oracles.GEN)
    warm = warm_point(base)
    s = rng.randrange(1, n)
    c = rng.randrange(1, n)
    # a fresh copy from an emptied cache per call stays on the cold path
    for point in (lambda: warm, lambda: cold_point(base)):
        assert curve.link_x(0, c, point()) == oracles.affine_scalar_mult(c, base)[0]
        assert curve.link_x(s, 0, point()) == oracles.affine_scalar_mult(s, oracles.GEN)[0]
        assert curve.link_x(0, 0, point()) is None
        assert curve.link_x(n, 2 * n, point()) is None
        want = oracle_link_x(s, c, base)
        assert curve.link_x(s + n, c, point()) == want
        assert curve.link_x(s, c + 3 * n, point()) == want


def test_link_x_handles_cancellation_and_doubling():
    # the member is a second copy of G, so s*G and c*P can meet exactly
    n = curve.CURVE_ORDER
    warm = warm_point(oracles.GEN)
    s = (1 << 200) + 12345
    # a fresh copy from an emptied cache per call stays on the cold path
    for point in (lambda: warm, lambda: cold_point(oracles.GEN)):
        # s*G = -c*P: the sum is infinity
        assert curve.link_x(n - 5, 5, point()) is None
        assert curve.link_x(5, n - 5, point()) is None
        assert curve.link_x(s, n - s, point()) is None
        # s*G = c*P: the accumulator meets an equal term and doubles
        assert curve.link_x(5, 5, point()) == oracles.affine_scalar_mult(10, oracles.GEN)[0]
        assert curve.link_x(s, s, point()) == oracles.affine_scalar_mult(2 * s, oracles.GEN)[0]
        # 763 recodes as -5 + 3 * 2^8: the accumulator passes through
        # infinity and starts again from the next term
        assert curve.link_x(5, 763, point()) == oracles.affine_scalar_mult(768, oracles.GEN)[0]


# -- points without a table: the interleaved wNAF path and mult_add --

def test_cold_points_cover_every_glv_sign_pattern_and_edge_scalar():
    rng = random.Random(0x5164)
    n = curve.CURVE_ORDER
    base = oracles.affine_scalar_mult(31337, oracles.GEN)
    scalars = [1, 2, 3, 15, 16, 17, 31, 33, n - 1, n - 2]
    signs = set()
    while len(signs) < 4:
        k = rng.randrange(1, n)
        k1, k2 = curve._glv_split(k)
        if (k1 < 0, k2 < 0) not in signs:
            signs.add((k1 < 0, k2 < 0))
            scalars.append(k)
    # one half zero: k below 2^127 leaves the second half 0, and lambda
    # itself leaves the first half 0
    low = (1 << 126) + 0x5EED
    assert curve._glv_split(low)[1] == 0
    assert curve._glv_split(curve._LAMBDA)[0] == 0
    scalars += [low, curve._LAMBDA, n - curve._LAMBDA]
    for k in scalars:
        assert cold_mult(k, base) == oracles.affine_scalar_mult(k, base), hex(k)


def oracle_mult_add(s, c, base):
    return oracles.affine_add(oracles.affine_scalar_mult(s, oracles.GEN),
                              oracles.affine_scalar_mult(c, base))


def test_mult_add_matches_oracle_on_table_and_cold_points():
    rng = random.Random(0xADD)
    base = oracles.affine_scalar_mult(rng.randrange(1, curve.CURVE_ORDER), oracles.GEN)
    for _ in range(6):
        s = rng.randrange(curve.CURVE_ORDER)
        c = rng.randrange(curve.CURVE_ORDER)
        want = oracle_mult_add(s, c, base)
        assert as_tuple(curve.mult_add(s, c, warm_point(base))) == want
        cold = cold_point(base)
        assert as_tuple(curve.mult_add(s, c, cold)) == want
        assert curve._cached(cold) is None
        assert curve.link_x(s, c, cold_point(base)) == want[0]


def test_mult_add_zero_scalars():
    rng = random.Random(0x2E80)
    n = curve.CURVE_ORDER
    base = oracles.affine_scalar_mult(55555, oracles.GEN)
    warm = warm_point(base)
    s = rng.randrange(1, n)
    c = rng.randrange(1, n)
    for point in (lambda: warm, lambda: cold_point(base)):
        assert as_tuple(curve.mult_add(0, c, point())) == oracles.affine_scalar_mult(c, base)
        assert as_tuple(curve.mult_add(s, 0, point())) == \
            oracles.affine_scalar_mult(s, oracles.GEN)
        assert curve.mult_add(0, 0, point()) is None
        assert curve.mult_add(n, 3 * n, point()) is None


def test_mult_add_handles_cancellation_and_doubling():
    # the point is a second copy of G, so s*G and c*P can meet exactly
    n = curve.CURVE_ORDER
    warm = warm_point(oracles.GEN)
    s = (1 << 200) + 12345
    for point in (lambda: warm, lambda: cold_point(oracles.GEN)):
        # s*G = -c*P: the sum is infinity
        assert curve.mult_add(n - 5, 5, point()) is None
        assert curve.mult_add(s, n - s, point()) is None
        # s*G = c*P: the accumulator meets an equal term and doubles
        assert as_tuple(curve.mult_add(5, 5, point())) == \
            oracles.affine_scalar_mult(10, oracles.GEN)
        assert as_tuple(curve.mult_add(1, 1, point())) == (G2_X, G2_Y)
        assert as_tuple(curve.mult_add(s, s, point())) == \
            oracles.affine_scalar_mult(2 * s, oracles.GEN)


# -- the coordinate-keyed table cache --

def counting_builds(monkeypatch):
    built = []
    original = curve._build_table

    def build(x, y, width):
        built.append((x, y, width))
        return original(x, y, width)

    monkeypatch.setattr(curve, "_build_table", build)
    return built


def test_separately_decoded_equal_points_build_one_table(monkeypatch):
    built = counting_builds(monkeypatch)
    raw = curve.scalar_mult(0xFACE, curve.GENERATOR).to_bytes()
    first = curve.Point.from_bytes(raw)
    second = curve.Point.from_bytes(raw)
    for _ in range(3):
        curve.scalar_mult(3, first)
    for _ in range(3):
        curve.link_x(5, 7, second)
    assert [entry[:2] for entry in built] == [(first.x, first.y)]
    assert curve._cached(second) is curve._cached(first) is not None


def test_point_gets_its_table_on_the_third_use_per_coordinate():
    pt = oracles.affine_scalar_mult(0xBEAD, oracles.GEN)
    uses = [lambda: curve.scalar_mult(11, from_tuple(pt)),
            lambda: curve.link_x(13, 17, from_tuple(pt)),
            lambda: curve.scalar_mult(19, from_tuple(pt))]
    for count, use in enumerate(uses, start=1):
        use()
        assert (curve._cached(from_tuple(pt)) is not None) == (count == 3), count
    assert not curve._use_counts


def test_cache_evicts_least_recently_used_at_its_cap(monkeypatch):
    monkeypatch.setattr(curve, "_CACHE_ENTRIES", 2)
    a, b, c = (oracles.affine_scalar_mult(k, oracles.GEN) for k in (101, 102, 103))
    warm_point(a)
    warm_point(b)
    curve.scalar_mult(5, from_tuple(a))  # a is now the most recently used
    warm_point(c)
    assert [curve._cached(from_tuple(pt)) is not None for pt in (a, b, c)] == \
        [True, False, True]
    # the admission counts are bounded by the same cap
    for k in (201, 202, 203):
        curve.scalar_mult(2, from_tuple(oracles.affine_scalar_mult(k, oracles.GEN)))
    assert len(curve._use_counts) == 2
    assert oracles.affine_scalar_mult(201, oracles.GEN) not in curve._use_counts


def test_recovering_one_signature_five_times_admits_nothing():
    pair = keys.KeyPair.generate(random.Random(0x5EC))
    signature = signing.sign(b"replayed call", pair.secret, random.Random(1))
    empty_cache()
    for _ in range(5):
        assert signing.recover(b"replayed call", signature) == pair.public
    assert not curve._tables
    assert not curve._use_counts


def test_packed_table_entries_and_products_match_oracle():
    rng = random.Random(0x9AC)
    base = oracles.affine_scalar_mult(0xC0DE, oracles.GEN)
    point = warm_point(base)
    width, entries = curve._cached(point)
    half = 1 << (width - 1)
    mask = (1 << 256) - 1
    rows = (len(entries) - 1) // half
    for index in (0, 1, half - 1, half, rows * half - 1, rows * half):
        row, d = divmod(index, half)
        want = oracles.affine_scalar_mult((d + 1) << (width * row), base)
        assert (entries[index] >> 256, entries[index] & mask) == want, index
    signs = set()
    while len(signs) < 4:
        k = rng.randrange(1, curve.CURVE_ORDER)
        k1, k2 = curve._glv_split(k)
        if (k1 < 0, k2 < 0) in signs:
            continue
        signs.add((k1 < 0, k2 < 0))
        s = rng.randrange(1, curve.CURVE_ORDER)
        assert as_tuple(curve.scalar_mult(k, point)) == oracles.affine_scalar_mult(k, base)
        assert curve.link_x(s, k, point) == oracle_link_x(s, k, base)


# -- field work: the square root chain and the inversions a product takes --

field_elements = st.integers(min_value=0, max_value=curve.FIELD_PRIME - 1)


@settings(max_examples=200, deadline=None)
@given(a=field_elements)
def test_sqrt_chain_matches_the_plain_power(a):
    p = curve.FIELD_PRIME
    square = a * a % p
    # p = 3 (mod 4), so -1 is a non-square, and so is -a^2 for a != 0
    for v in (a, square, (p - square) % p, 0, p - 1):
        assert curve._sqrt(v) == pow(v, (p + 1) // 4, p)
    assert curve._sqrt(square) in (a, p - a)


@pytest.fixture
def pow_calls(monkeypatch):
    """(exponent, modulus) of every pow call made in curve and signing,
    which shadow the builtin in their module namespaces."""
    calls = []

    def counting_pow(base, exponent, modulus=None):
        calls.append((exponent, modulus))
        return pow(base, exponent, modulus)

    # the generator's table takes inversions of its own when it is built
    curve.scalar_mult(1, curve.GENERATOR)
    for module in (curve, signing):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    return calls


def test_cold_products_take_one_inversion_and_recover_two(pow_calls):
    rng = random.Random(0x1AF)
    p, n = curve.FIELD_PRIME, curve.CURVE_ORDER
    base = oracles.affine_scalar_mult(0xF1E1D, oracles.GEN)
    for _ in range(3):
        k = rng.randrange(1, n)
        curve._cold_xyzz(k, cold_point(base))
        assert pow_calls == []
        assert cold_mult(k, base) == oracles.affine_scalar_mult(k, base)
        assert pow_calls == [(-1, p)]
        pow_calls.clear()
        curve.link_x(rng.randrange(n), k, cold_point(base))
        assert pow_calls == [(-1, p)]
        pow_calls.clear()

    pair = keys.KeyPair.generate(rng)
    for index in range(3):
        message = b"call %d" % index
        signature = signing.sign(message, pair.secret, rng)
        pow_calls.clear()
        empty_cache()
        assert signing.recover(message, signature) == pair.public
        # r^-1 mod n and the accumulator's final inversion, and nothing
        # else: the nonce's y comes from the square-root chain, not from pow
        assert pow_calls == [(-1, n), (-1, p)]
