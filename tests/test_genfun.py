"""Truncated series arithmetic and the generating-function formulas."""

import copy
import hashlib
import itertools
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fishburn.errors import DomainError, ResourceLimitError, UsageError, invariant
from fishburn.seqcore import CAPS, ClassId, enumerate_class
from fishburn import decomp, genfun, stats

MAX_ORDER = CAPS["series"]

FISHBURN_COUNTS = [0, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608, 1422074]

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20)


def series(draw_order=4):
    return st.lists(rationals, min_size=draw_order + 1, max_size=draw_order + 1
                    ).map(genfun.TruncSeries)


class TestTruncSeries:
    def test_construction_and_padding(self):
        f = genfun.TruncSeries((1, 2), order=4)
        assert f.order == 4
        assert f.coeffs == (1, 2, 0, 0, 0)
        assert f.coefficient(3) == 0

    def test_as_integers(self):
        f = genfun.TruncSeries((0, 1, 2, 5))
        assert f.as_integers() == [0, 1, 2, 5]
        with pytest.raises(UsageError):
            genfun.TruncSeries((Fraction(1, 2), 0)).as_integers()

    def test_monomial(self):
        m = genfun.TruncSeries.monomial(Fraction(7), 2, 4)
        assert m.coeffs == (0, 0, 7, 0, 0)

    def test_errors(self):
        with pytest.raises(UsageError):
            genfun.TruncSeries((1, 0, 0)) + genfun.TruncSeries((1, 0))
        with pytest.raises(DomainError):
            genfun.TruncSeries((0, 1)).inverse()
        with pytest.raises(UsageError):
            genfun.fishburn_series(-1)
        with pytest.raises(ResourceLimitError):
            genfun.fishburn_series(13)
        f = genfun.TruncSeries((1, 2, 3))
        for k in (-1, 3):
            with pytest.raises(UsageError) as caught:
                f.coefficient(k)
            assert str(caught.value) == f"coefficient index {k} outside 0..2"

    @pytest.mark.parametrize("call, error, text", [
        (lambda: setattr(genfun.TruncSeries((1, 0)), "order", 2),
         AttributeError, "TruncSeries is immutable"),
        (lambda: genfun.TruncSeries.monomial(1, -1, 3),
         UsageError, "monomial power must be nonnegative"),
        (lambda: genfun.TruncSeries((1,), order=3)
         * genfun.TruncSeries((1,), order=4),
         UsageError, "order mismatch: 3 vs 4"),
        (lambda: genfun.TruncSeries((1,), order=3).truncate(5),
         UsageError, "cannot truncate order 3 to 5"),
        (lambda: genfun.TruncSeries((Fraction(1, 2), 0)).as_integers(),
         UsageError, "coefficient of t^0 is not an integer: 1/2"),
        (lambda: genfun.eval_gf(genfun.DistTable(ClassId.ASC, 1, ("rmin",),
                                                 {(0,): 1}),
                                genfun.SpecPoint()),
         UsageError, "statistic 'rmin' has no marker variable; usable: "
                     "asc, ealm, max, mpair, rep, zero, zpair"),
        (lambda: genfun.series_asczero(3, variant="x"),
         UsageError, "unknown variant 'x'; expected one of: primitive, "
                     "alternative"),
        (lambda: genfun.check_case_identity(1, 3),
         UsageError, "a point with all five marker values is required"),
    ], ids=["immutable", "monomial", "mismatch", "truncate", "integers",
            "marker", "variant", "point"])
    def test_refusal_texts(self, call, error, text):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == text

    @pytest.mark.parametrize("expression, refusal", [
        (lambda f: f * 2, "*: 'TruncSeries' and 'int'"),
        (lambda f: 2 * f, "*: 'int' and 'TruncSeries'"),
        (lambda f: f * Fraction(1, 2), "*: 'TruncSeries' and 'Fraction'"),
        (lambda f: f / 2, "/: 'TruncSeries' and 'int'"),
        (lambda f: f + 1, "+: 'TruncSeries' and 'int'"),
        (lambda f: f - 1, "-: 'TruncSeries' and 'int'")],
        ids=["f*2", "2*f", "f*half", "f/2", "f+1", "f-1"])
    def test_scalar_operands_are_refused(self, expression, refusal):
        # +, -, * and / take two series; scale is the one product by a
        # rational, and a series equals no scalar
        f = genfun.TruncSeries((1, 2, 3))
        with pytest.raises(TypeError) as caught:
            expression(f)
        assert str(caught.value) == f"unsupported operand type(s) for {refusal}"
        assert (f == 1) is False

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_and_pickles(self, round_trip):
        f = genfun.TruncSeries([1, "1/2", 3])
        g = round_trip(f)
        assert g == f and hash(g) == hash(f)
        assert (g.order, g.coeffs) == (2, (1, Fraction(1, 2), 3))

    @given(series(), series(), series())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == genfun.TruncSeries.zero(a.order)

    @given(series())
    def test_inverse_is_two_sided(self, a):
        one = genfun.TruncSeries.one(a.order)
        if a.coefficient(0) == 0:
            with pytest.raises(DomainError):
                a.inverse()
        else:
            assert a * a.inverse() == one
            assert a.inverse() * a == one


class TestSpecPoint:
    def test_defaults_and_exactness(self):
        p = genfun.SpecPoint()
        assert p.as_dict() == {"x": "1", "q": "1", "u": "1", "z": "1", "w": "1"}
        with pytest.raises(UsageError):
            genfun.SpecPoint(x=0.5)

    def test_random_points_are_reproducible(self):
        a = genfun.random_point(random.Random(99))
        b = genfun.random_point(random.Random(99))
        assert a == b

    def test_constraint_is_respected(self):
        rng = random.Random(5)
        for _ in range(20):
            p = genfun.random_point(
                rng, constraint=genfun.admissible_for_length_series)
            assert genfun.admissible_for_length_series(p)

    def test_replace_coerces_as_the_constructor_does(self):
        point = genfun.SpecPoint(x=Fraction(2, 3))
        moved = point.replace(w=1)
        assert type(moved.w) is Fraction and moved.w == Fraction(1)
        assert moved == genfun.SpecPoint(x=Fraction(2, 3), w="1")
        with pytest.raises(UsageError):
            point.replace(q=0.5)

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_and_pickles(self, round_trip):
        # the copy is rebuilt through SpecPoint.__new__ from its markers
        point = genfun.SpecPoint(x=Fraction(2, 3), q=3, w="-1/2")
        got = round_trip(point)
        assert type(got) is genfun.SpecPoint
        assert got == point and hash(got) == hash(point)
        assert got.as_dict() == {"x": "2/3", "q": "3", "u": "1", "z": "1",
                                 "w": "-1/2"}

    def test_admissibility_rejects_the_pole(self):
        # x = u = 2 makes a denominator factor vanish at weight one
        assert not genfun.admissible_for_length_series(
            genfun.SpecPoint(x=2, u=2))
        assert genfun.admissible_for_length_series(genfun.SpecPoint())


# Whole series at order 12, past the t^9/t^10 the checks compare; pinned
# from the Fraction-coefficient implementation.
PIN_POINTS = {
    "positive": genfun.SpecPoint(x=Fraction(2, 3), q=3, u=Fraction(1, 2), z=5),
    "mixed": genfun.SpecPoint(x=Fraction(-3, 2), q=Fraction(-2, 5),
                              u=Fraction(7, 4), z=-3),
}
PINNED_SHA256 = {
    ("G", "positive"):
        "2590af07ffe1a3503e2641fd2a3bd2bc087dc2a6bc33134a47a3e44251e2ae0e",
    ("G", "mixed"):
        "ec933c572d39de05963a6029d505c92edcb772a3111b09e689e9c09c7cff3d3d",
    ("zeromax", "positive"):
        "6daa85959df25df5666b69c85a91eea5090b2872ed9c84aa7d6d71e0c1048e9e",
    ("zeromax", "mixed"):
        "e9e3510d91e561fcded7d203c421f700af30959156705050da6a09dcbd95b508",
    ("primitive", "positive"):
        "455ef935ccd18ae59632addbc9528cdae2c02ad9888a3013ac4c85421c5001af",
    ("primitive", "mixed"):
        "eb0ac9e7b788fca8e7b578087cc86e5a50c549bfc138909cc894f6160d1ea68a",
    ("alternative", "positive"):
        "455ef935ccd18ae59632addbc9528cdae2c02ad9888a3013ac4c85421c5001af",
    ("alternative", "mixed"):
        "eb0ac9e7b788fca8e7b578087cc86e5a50c549bfc138909cc894f6160d1ea68a",
}


class TestPinnedSeries:
    def test_fishburn_series(self):
        assert repr(genfun.fishburn_series(MAX_ORDER)) == (
            "TruncSeries(order=12, coeffs=['0', '1', '2', '5', '15', '53', "
            "'217', '1014', '5335', '31240', '201608', '1422074', "
            "'10886503'])")

    @pytest.mark.parametrize("which, where", list(PINNED_SHA256))
    def test_marker_series(self, which, where):
        point, order = PIN_POINTS[where], MAX_ORDER
        if which == "G":
            got = genfun.series_G(order, point)
        elif which == "zeromax":
            got = genfun.series_zeromax(order, point.q, point.z)
        else:
            got = genfun.series_asczero(order, point.u, point.z, which)
        text = repr(got)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            PINNED_SHA256[which, where]), text


class TestSeriesFormulas:
    def test_fishburn_coefficients(self):
        assert genfun.fishburn_series(11).as_integers() == FISHBURN_COUNTS
        assert genfun.fishburn_series(1).as_integers() == [0, 1]

    def test_quadruple_series_at_the_all_ones_point(self):
        assert genfun.series_G(9, genfun.SpecPoint()) == genfun.fishburn_series(9)

    def test_quadruple_series_first_coefficient(self):
        pt = genfun.SpecPoint(x=Fraction(2, 3), q=3, u=Fraction(1, 2),
                              z=Fraction(5, 7))
        # the single length-one sequence carries weight q*z
        assert genfun.series_G(1, pt).coefficient(1) == Fraction(15, 7)

    def test_quadruple_symmetry(self):
        pt = genfun.SpecPoint(x=Fraction(2, 3), q=3, u=Fraction(1, 2),
                              z=Fraction(5, 7))
        swapped = genfun.SpecPoint(x=pt.u, q=pt.z, u=pt.x, z=pt.q)
        assert genfun.series_G(8, pt) == genfun.series_G(8, swapped)

    def test_zeromax_series(self):
        rng = random.Random(777)
        for _ in range(3):
            q = genfun.random_point(rng).q
            z = genfun.random_point(rng).z
            f = genfun.series_zeromax(6, q=q, z=z)
            assert f == genfun.series_zeromax(6, q=z, z=q)

    def test_asczero_variants_agree(self):
        rng = random.Random(31)
        for _ in range(3):
            pt = genfun.random_point(rng)
            a = genfun.series_asczero(7, u=pt.u, z=pt.z, variant="primitive")
            b = genfun.series_asczero(7, u=pt.u, z=pt.z, variant="alternative")
            assert a == b
            assert a == genfun.series_G(
                7, genfun.SpecPoint(u=pt.u, z=pt.z))

    def test_asczero_at_ones_gives_the_counts(self):
        assert genfun.series_asczero(9).as_integers() == FISHBURN_COUNTS[:10]
        with pytest.raises(UsageError):
            genfun.series_asczero(5, variant="nope")


class TestEvalGf:
    def table(self):
        counts = Counter()
        for s in enumerate_class(ClassId.ASC, 3):
            sc = stats.scalar_stats(s)
            counts[(sc["rep"], sc["max"])] += 1
        return genfun.DistTable(ClassId.ASC, 3, ("rep", "max"), dict(counts))

    def test_single_table(self):
        tbl = self.table()
        assert tbl.total() == 5
        assert genfun.eval_gf(tbl, genfun.SpecPoint()) == 5
        assert genfun.eval_gf(tbl, genfun.SpecPoint(x=0, q=1)) == 1
        assert genfun.eval_gf(tbl, genfun.SpecPoint(x=2, q=3)) == 81

    def test_table_list(self):
        got = genfun.eval_gf([self.table()], genfun.SpecPoint(x=2, q=3))
        assert got == [0, 0, 0, 81]


class TestCaseIdentities:
    def test_all_four_at_a_generic_point(self):
        pt = genfun.SpecPoint(x=2, q=3, u=Fraction(1, 2), z=5, w=Fraction(1, 3))
        for case in (1, 2, 3, 4):
            report = genfun.check_case_identity(case, order=8, point=pt)
            assert report.ok, (case, report)
            assert report.lhs == report.rhs

    def test_degenerate_marker_point(self):
        # at w = 0, z = 1 every marker-weighted term collapses
        pt = genfun.SpecPoint(x=2, q=3, u=5, z=1, w=0)
        for case in (1, 2, 3, 4):
            assert genfun.check_case_identity(case, order=7, point=pt).ok

    def test_seeded_points(self):
        rng = random.Random(4242)
        done = 0
        while done < 5:
            pt = genfun.random_point(
                rng, constraint=genfun.admissible_for_case_identity)
            if pt.w in (0, 1):
                continue
            for case in (1, 2, 3, 4):
                assert genfun.check_case_identity(case, order=7, point=pt).ok
            done += 1

    def test_errors(self):
        with pytest.raises(UsageError):
            genfun.check_case_identity(5, order=6, point=genfun.SpecPoint())
        # equal to 1, but no case number: refused, not looked up as S1.0
        for case in (True, 1.0):
            with pytest.raises(UsageError) as caught:
                genfun.check_case_identity(case, 3, genfun.SpecPoint(w=2))
            assert str(caught.value) == f"case must be 1..4, got {case!r}"
        with pytest.raises(DomainError):
            genfun.check_case_identity(
                1, order=6, point=genfun.SpecPoint(w=1))
        with pytest.raises(DomainError):
            genfun.check_case_identity(
                1, order=6, point=genfun.SpecPoint(q=0, w=2))


# --- Fraction-by-Fraction references ------------------------------------------
#
# genfun keeps every series as integer numerators over one denominator and
# evaluates tables on integers.  These are the plain Fraction loops that it
# replaced; the fast paths must agree with them exactly.

def reference_mul(a, b):
    out = [Fraction(0)] * (a.order + 1)
    bc = b.coeffs                       # built on each read: read it once
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j in range(a.order + 1 - i):
            y = bc[j]
            if y:
                out[i + j] += x * y
    return genfun.TruncSeries(out, a.order)


def reference_inverse(a):
    ac = a.coeffs
    lead = ac[0]
    out = [Fraction(0)] * (a.order + 1)
    out[0] = Fraction(1) / lead
    for k in range(1, a.order + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if ac[j]:
                acc += ac[j] * out[k - j]
        out[k] = -acc / lead
    return genfun.TruncSeries(out, a.order)


def reference_quotient(a, b):
    """a / b by long division, coefficient by coefficient."""
    out, ac, bc = [], a.coeffs, b.coeffs
    for k in range(a.order + 1):
        acc = ac[k]
        for j in range(1, k + 1):
            acc -= bc[j] * out[k - j]
        out.append(acc / bc[0])
    return out


def assert_canonical(f):
    assert type(f._num) is tuple and len(f._num) == f.order + 1
    assert all(type(v) is int for v in f._num) and type(f._den) is int
    assert f._den > 0 and math.gcd(f._den, *f._num) == 1


def assert_series_of(got, want):
    """got holds exactly the Fractions want, in canonical form."""
    assert_canonical(got)
    assert got.coeffs == tuple(want)
    assert all(type(c) is Fraction for c in got.coeffs)
    # coefficient(k) reads the integers, not coeffs
    read = [got.coefficient(k) for k in range(got.order + 1)]
    assert read == list(want) and all(type(c) is Fraction for c in read)
    built = genfun.TruncSeries(want, got.order)
    assert got == built and hash(got) == hash(built)
    assert repr(got) == repr(built)


def reference_weighted_sum(counts, bases):
    total = Fraction(0)
    for key, count in counts.items():
        term = Fraction(count)
        for base, exponent in zip(bases, key):
            term *= base ** exponent
        total += term
    return total


def reference_eval_table(table, point):
    bases = [getattr(point, genfun.MARKER_VARS[name]) for name in table.stats]
    return reference_weighted_sum(table.counts, bases)


def reference_eval_gf(tables, point):
    out = [Fraction(0)] * (max(tbl.n for tbl in tables) + 1)
    for tbl in tables:
        out[tbl.n] += reference_eval_table(tbl, point)
    return out


def reference_profile_series(profile, order, point):
    bases = (point.x, point.q, point.w, point.u, point.z)
    coeffs = [Fraction(0)] * (order + 1)
    for n, counts in profile.items():
        coeffs[n] = reference_weighted_sum(counts, bases)
    return genfun.TruncSeries(coeffs, order)


def reference_case_profiles(order):
    """The profiles built with the validating scalar_stats."""
    whole = {n: Counter() for n in range(1, order + 1)}
    parts = {f"S{case}": {n: Counter() for n in whole} for case in range(1, 5)}
    for n in whole:
        for s in enumerate_class(ClassId.ASC, n):
            sc = stats.scalar_stats(s)
            if sc["max"] == n:
                continue
            key = (sc["rep"], sc["max"], stats.ealm(s), sc["asc"],
                   sc["zero"])
            whole[n][key] += 1
            parts[decomp.classify(s, "ASC_S")][n][key] += 1
    return whole, parts


sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)
units = rationals.filter(bool)


@st.composite
def few_term_pairs(draw):
    """A series of at most three nonzero terms and any series, either way
    round: the factors that the series loops multiply by most."""
    order = draw(st.integers(1, MAX_ORDER))
    coeffs = [Fraction(0)] * (order + 1)
    for k in draw(st.lists(st.integers(0, order), max_size=3, unique=True)):
        coeffs[k] = draw(units)
    few = genfun.TruncSeries(coeffs, order)
    other = genfun.TruncSeries(draw(st.lists(
        sparse_rationals, min_size=order + 1, max_size=order + 1)), order)
    return (few, other) if draw(st.booleans()) else (other, few)


# the factors of the series loops at order 12, against a dense series
_T = genfun.TruncSeries.monomial(1, 1, 12)
_ONE = genfun.TruncSeries.one(12)
_DENSE = genfun.TruncSeries(
    [Fraction((-1) ** k * (k + 2), 3 + k % 4) for k in range(13)])
_FEW = {"t": _T.scale(Fraction(-5, 3)), "1-t": _ONE - _T,
        "zr-1": _T.scale(Fraction(7, 2)) - _ONE,
        "drop": (_ONE - _T.scale(Fraction(4, 5))) * (_ONE - _T.scale(3))}


@st.composite
def series_pairs(draw, unit_lead=False):
    order = draw(st.integers(1, MAX_ORDER))
    size = st.lists(sparse_rationals, min_size=order, max_size=order)
    lead = units if unit_lead else sparse_rationals
    return tuple(genfun.TruncSeries([draw(lead)] + draw(size), order)
                 for _ in range(2))


coordinates = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-7, 3)]),
    st.fractions(min_value=-6, max_value=6, max_denominator=9))
points = st.builds(genfun.SpecPoint, x=coordinates, q=coordinates,
                   u=coordinates, z=coordinates, w=coordinates)
# the case identities evaluate the whole profile at w = 0 and w = 1
special_point = genfun.SpecPoint(x=Fraction(-2, 3), q=0, u=Fraction(5, 2),
                                 z=-1, w=0)
# x = q = 1, where every a_m is a power of 1 - r
unit_point = genfun.SpecPoint(x=1, q=1, u=Fraction(-7, 3), z=Fraction(5, 2))


def sample_tables():
    """ASC tables at n = 1..6 for marker sets with and without ealm."""
    tables = []
    for names in (("rep", "max", "asc", "zero"), ("zero", "max"),
                  ("asc", "zero", "ealm")):
        for n in range(1, 7):
            counts = Counter()
            for s in enumerate_class(ClassId.ASC, n):
                sc = stats.scalar_stats(s)
                values = {"ealm": stats.ealm(s), **sc}
                counts[tuple(values[name] for name in names)] += 1
            tables.append(genfun.DistTable(ClassId.ASC, n, names, dict(counts)))
    return tables


SAMPLE_TABLES = sample_tables()

# one group of mixed lengths with an empty table in it (its own exponent is
# 0, the group's is not), an empty table alone in a group of its own, and a
# table whose largest exponent is not in its first key
EMPTY_IN_GROUP = genfun.DistTable(ClassId.ASC, 8, ("rep", "max", "asc", "zero"), {})
EMPTY_ALONE = genfun.DistTable(ClassId.ASC, 7, ("max",), {})
SKEWED = genfun.DistTable(ClassId.ASC, 9, ("rep", "max"), {(0, 1): 2, (3, 0): 1})
MIXED_TABLES = [SAMPLE_TABLES[4], SAMPLE_TABLES[1], EMPTY_IN_GROUP,
                SAMPLE_TABLES[5], *SAMPLE_TABLES[9:12], EMPTY_ALONE, SKEWED]


class TestAgainstFractionReferences:
    @settings(deadline=None)
    @given(st.one_of(series_pairs(), few_term_pairs()))
    @example((_FEW["t"], _DENSE))
    @example((_DENSE, _FEW["1-t"]))
    @example((_FEW["zr-1"], _DENSE))
    @example((_DENSE, _FEW["drop"]))
    @example((_FEW["drop"], _FEW["t"]))
    @example((genfun.TruncSeries.zero(12), _DENSE))
    def test_product(self, pair):
        # every product of two series takes the one kernel of diagonal sums;
        # factors of few terms (t, 1 - t, 1 - zt) stay among the inputs, as
        # the closed forms and the case identities multiply by them
        a, b = pair
        got, want = a * b, reference_mul(a, b)
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert_canonical(got)

    @settings(deadline=None)
    @given(series_pairs(unit_lead=True))
    def test_inverse_and_quotient(self, pair):
        a, _ = pair
        assert a.inverse() == reference_inverse(a)
        assert_canonical(a.inverse())
        assert repr(a.inverse()) == repr(reference_inverse(a))

    @settings(deadline=None)
    @given(series_pairs(), rationals)
    def test_sum_difference_negation_and_scale(self, pair, c):
        a, b = pair
        assert_series_of(a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)])
        assert_series_of(a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)])
        assert_series_of(-a, [-x for x in a.coeffs])
        assert_series_of(a.scale(c), [x * c for x in a.coeffs])

    @settings(deadline=None)
    @given(series_pairs(), units)
    def test_quotient_of_any_dividend(self, pair, lead):
        # the dividend's constant term may be zero or any rational
        a, b = pair
        b = genfun.TruncSeries((lead,) + b.coeffs[1:], b.order)
        assert_series_of(a / b, reference_quotient(a, b))

    @settings(deadline=None)
    @given(series_pairs(unit_lead=True),
           st.lists(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-3)]),
                    min_size=6, max_size=6))
    def test_equality_and_hash_follow_the_coefficients(self, pair, small):
        a, b = pair
        back = a * b / b
        assert back == a and back.coeffs == a.coeffs and hash(back) == hash(a)
        # small vectors collide often; equal ones meet through different routes
        f = genfun.TruncSeries(small[:3]).scale(2)
        g = genfun.TruncSeries(small[3:]) + genfun.TruncSeries(small[3:])
        for x, y in ((a, b), (a, back), (f, g), (g, f), (f, -f), (a, -(-a))):
            assert (x == y) == (x.coeffs == y.coeffs)
            if x == y:
                assert hash(x) == hash(y)

    def test_zero_lead_is_still_refused(self):
        a = genfun.TruncSeries((0, Fraction(-3, 4), 2), order=12)
        with pytest.raises(DomainError, match="constant term is zero"):
            a.inverse()
        with pytest.raises(DomainError, match="constant term is zero"):
            genfun.TruncSeries.one(12) / a

    @settings(deadline=None)
    @given(points)
    @example(special_point)
    @example(unit_point)
    def test_eval_gf(self, point):
        for table in (*SAMPLE_TABLES, EMPTY_IN_GROUP, EMPTY_ALONE, SKEWED):
            assert genfun.eval_gf(table, point) == reference_eval_table(
                table, point)
        for tables in (SAMPLE_TABLES[:6], MIXED_TABLES):
            got = genfun.eval_gf(tables, point)
            assert got == reference_eval_gf(tables, point)
            assert all(type(v) is Fraction for v in got)

    def test_eval_gf_edge_tables(self):
        point = genfun.SpecPoint(x=Fraction(2, 3))
        empty = genfun.DistTable(ClassId.ASC, 3, ("rep",), {})
        unmarked = genfun.DistTable(ClassId.ASC, 3, (), {(): 5})
        assert genfun.eval_gf(empty, point) == 0
        assert genfun.eval_gf(unmarked, point) == 5
        # the largest exponent is not in the first key
        skewed = genfun.DistTable(ClassId.ASC, 3, ("rep", "max"),
                                  {(0, 1): 2, (3, 0): 1})
        assert genfun.eval_gf(skewed, point) == reference_eval_table(
            skewed, point)

    @settings(deadline=None, max_examples=40)
    @given(points)
    @example(special_point)
    @example(unit_point)
    def test_profile_series(self, point):
        whole, parts = genfun._case_profiles(6)
        empty = genfun._Profile({n: Counter() for n in range(1, 7)})
        for profile in (whole, *parts.values(), empty):
            assert_same_step(genfun._profile_series(profile, 6, point),
                             reference_profile_series(profile, 6, point))

    def test_case_profiles_match_the_validating_build(self):
        whole, parts = reference_case_profiles(8)
        for order in range(1, 9):
            lengths = range(1, order + 1)
            assert genfun._case_profiles(order) == (
                {n: whole[n] for n in lengths},
                {label: {n: part[n] for n in lengths}
                 for label, part in parts.items()})


# --- one build per point, summands at shrinking order ----------------------------
#
# series_G and series_asczero build their constant series once and series_G
# shares one quotient per summand; check_case_identity evaluates each
# specialisation of the whole profile once per point.  Every closed form
# builds its m-th summand over t^(m+1) at order - m - 1 only, and adds the
# summands up once.  These are the full-order bodies they replaced, which
# must give the same canonical series.


def ref_series_G(order, point):
    TruncSeries = genfun.TruncSeries
    x, q, u, z = point.x, point.q, point.u, point.z
    mix = x + u - x * u
    one = TruncSeries.one(order)
    r = TruncSeries.monomial(mix, 1, order)
    shrink = one - r
    zr_less_one = r.scale(z) - one
    lead = r.scale(z * q * mix)
    a = one - r.scale(q)
    running = one
    total = TruncSeries.zero(order)
    for m in range(order):
        den_left = TruncSeries.constant(x * (1 - u), order) + a.scale(u)
        den_right = TruncSeries.constant(x, order) + a.scale(u * (1 - x))
        term = lead.scale(x ** m) * a * running / (den_left * den_right)
        total = total + term
        running = running * (one + zr_less_one * a) / den_right
        a = a * shrink
    return total


def ref_series_asczero(order, u, z, variant):
    TruncSeries = genfun.TruncSeries
    one = TruncSeries.one(order)
    t = TruncSeries.monomial(1, 1, order)
    shrink = one - t
    fading = one - t.scale(z)
    total = TruncSeries.zero(order)
    if variant == "primitive":
        shrink_pow = one
        running = one
        for m in range(order):
            piece = fading * shrink_pow
            running = (running * (one - piece)
                       / (TruncSeries.constant(u, order) + piece.scale(1 - u)))
            total = total + running.scale(u ** m)
            shrink_pow = shrink_pow * shrink
        return total
    shrink_pow = shrink
    running = one
    lead = t.scale(z)
    for m in range(order):
        den = TruncSeries.constant(1 - u, order) + shrink_pow.scale(u)
        total = total + lead * shrink_pow * running / den
        running = running * (one - fading * shrink_pow)
        shrink_pow = shrink_pow * shrink
    return total


def ref_series_zeromax(order, q, z):
    TruncSeries = genfun.TruncSeries
    one = TruncSeries.one(order)
    t = TruncSeries.monomial(1, 1, order)
    drop = (one - t.scale(z)) * (one - t.scale(q))
    shrink = one - t
    shrink_pow = one
    lead = t.scale(q * z)
    running = one
    total = TruncSeries.zero(order)
    for m in range(order):
        term = lead * running
        invariant(not any(term.coeffs[:m + 1]), "summand order bound violated")
        total = total + term
        running = running * (one - drop * shrink_pow)
        shrink_pow = shrink_pow * shrink
    return total


def ref_fishburn_series(order):
    TruncSeries = genfun.TruncSeries
    one = TruncSeries.one(order)
    t = TruncSeries.monomial(1, 1, order)
    shrink = one - t
    shrink_pow = shrink
    partial = one
    total = TruncSeries.zero(order)
    for m in range(1, order + 1):
        partial = partial * (one - shrink_pow)
        invariant(not any(partial.coeffs[:m]), "summand order bound violated")
        total = total + partial
        shrink_pow = shrink_pow * shrink
    return total


def ref_check_case_identity(case, order, point):
    """check_case_identity with every inner series rebuilt at each use."""
    TruncSeries = genfun.TruncSeries
    x, q, u, z, w = point.x, point.q, point.u, point.z, point.w
    whole, parts = genfun._case_profiles(order)
    lhs = genfun._profile_series(parts[f"S{case}"], order, point)

    def inner(**changes):
        return genfun._profile_series(whole, order, point.replace(**changes))

    one = TruncSeries.one(order)
    t = TruncSeries.monomial(1, 1, order)
    if case == 1:
        numer = TruncSeries.constant(z, order) + t.scale(q * u * w * (1 - z))
        rhs = ((t * t).scale(q * x * z) * numer
               / ((one - t.scale(q * u)) * (one - t.scale(q * u * w))))
    elif case == 2:
        rhs = (t * (inner() - inner(q=q * w, w=Fraction(1))).scale(x / (1 - w))
               + t * inner(w=Fraction(0)).scale(x * (z - 1)))
    elif case == 3:
        rhs = (t * (inner(w=Fraction(1)).scale((w + z - w * z) / (1 - w))
                    - inner().scale(Fraction(1) / (1 - w))
                    - inner(w=Fraction(0)).scale(z - 1)).scale(u * x))
    else:
        head = one - t.scale(q * u)
        tail = TruncSeries.constant(Fraction(1) / q, order) - t.scale(u)
        rhs = (head * (inner(w=Fraction(1)).scale((w + z - w * z) / (q * (1 - w)))
                       - inner().scale(Fraction(1) / (q * (1 - w))))
               - tail * inner(w=Fraction(0)).scale(z - 1))
    return genfun.IdentityReport(case, order, point, lhs == rhs, lhs, rhs)


length_points = points.filter(genfun.admissible_for_length_series)


class TestOneBuildPerPoint:
    @settings(deadline=None, max_examples=30)
    @given(length_points)
    @example(PIN_POINTS["mixed"])
    @example(unit_point)
    # the first three admissible points of random.Random(12345)
    @example(genfun.SpecPoint(x=7, q=Fraction(5, 6), u=Fraction(4, 5),
                              z=Fraction(10, 7), w=Fraction(1, 2)))
    @example(genfun.SpecPoint(x=Fraction(2, 7), q=Fraction(5, 9),
                              u=Fraction(3, 10), z=3, w=3))
    @example(genfun.SpecPoint(x=Fraction(9, 7), q=Fraction(10, 9), u=1, z=2,
                              w=Fraction(2, 3)))
    def test_series_G_matches_the_old_build(self, point):
        for order in range(1, MAX_ORDER + 1):
            assert repr(genfun.series_G(order, point)) == repr(
                ref_series_G(order, point))

    @settings(deadline=None, max_examples=30)
    @given(points)
    @example(special_point)
    @example(unit_point)
    def test_series_asczero_matches_the_old_build(self, point):
        for order in range(1, MAX_ORDER + 1):
            for variant in genfun.ASCZERO_VARIANTS:
                assert repr(genfun.series_asczero(
                    order, point.u, point.z, variant)) == repr(
                    ref_series_asczero(order, point.u, point.z, variant))

    @settings(deadline=None, max_examples=30)
    @given(points)
    @example(PIN_POINTS["mixed"])
    @example(unit_point)
    # the (q, z) that test_zeromax_series draws
    @example(genfun.SpecPoint(q=Fraction(4, 3), z=1))
    @example(genfun.SpecPoint(q=Fraction(6, 5), z=Fraction(3, 10)))
    @example(genfun.SpecPoint(q=Fraction(5, 8), z=Fraction(3, 8)))
    def test_series_zeromax_matches_the_old_build(self, point):
        for order in range(1, MAX_ORDER + 1):
            assert repr(genfun.series_zeromax(order, point.q, point.z)) == repr(
                ref_series_zeromax(order, point.q, point.z))

    def test_fishburn_series_matches_the_old_build(self):
        for order in range(1, MAX_ORDER + 1):
            assert repr(genfun.fishburn_series(order)) == repr(
                ref_fishburn_series(order))

    def test_the_division_by_t_keeps_the_summand_shape(self):
        f = genfun.TruncSeries((0, 0, Fraction(3, 2)))
        assert genfun._over_t(f) == genfun.TruncSeries((0, Fraction(3, 2)))
        # inside genfun a summand's last factor has order 0
        assert genfun._over_t(genfun._over_t(f)).coeffs == (Fraction(3, 2),)
        with pytest.raises(AssertionError, match="summand order bound violated"):
            genfun._over_t(genfun.TruncSeries((Fraction(1, 5), 0, 2)))

    @pytest.mark.parametrize("build", [
        genfun.fishburn_series,
        genfun.series_G,
        genfun.series_zeromax,
        lambda order: genfun.series_asczero(order, variant="primitive"),
        lambda order: genfun.series_asczero(order, variant="alternative"),
        genfun.TruncSeries.one,
        lambda order: genfun.TruncSeries((1, 2)).truncate(order),
    ], ids=["fishburn", "G", "zeromax", "primitive", "alternative", "one",
            "truncate"])
    def test_public_orders_still_refuse_zero(self, build):
        with pytest.raises(UsageError) as caught:
            build(0)
        assert str(caught.value) == (
            "series order must be a positive integer, got 0")

    @settings(deadline=None, max_examples=30)
    @given(length_points, st.integers(1, MAX_ORDER - 1),
           st.integers(1, MAX_ORDER - 1))
    def test_series_G_truncates_exactly(self, point, k, j):
        j = min(j, MAX_ORDER - k)
        longer = genfun.series_G(k + j, point)
        cut = longer.truncate(k)
        assert cut.coeffs == longer.coeffs[:k + 1]
        assert repr(cut) == repr(genfun.series_G(k, point))
        assert_canonical(cut)

    def test_truncate_refuses_a_higher_or_no_order(self):
        f = genfun.TruncSeries((1, Fraction(1, 2), 3))
        assert f.truncate(2) == f
        with pytest.raises(UsageError):
            f.truncate(3)
        with pytest.raises(UsageError):
            f.truncate(0)

    def test_case_reports_are_the_same_cold_and_warm(self):
        rng = random.Random(2718)
        pts = [genfun.SpecPoint(x=2, q=3, u=5, z=1, w=0)]
        while len(pts) < 4:
            pt = genfun.random_point(
                rng, constraint=genfun.admissible_for_case_identity)
            if pt.w not in (0, 1):
                pts.append(pt)
        for point in pts:
            want = [ref_check_case_identity(case, 6, point)
                    for case in (1, 2, 3, 4)]
            cold = []
            for case in (1, 2, 3, 4):
                genfun._whole_series.cache_clear()
                cold.append(genfun.check_case_identity(case, 6, point))
            genfun._whole_series.cache_clear()
            warm = [genfun.check_case_identity(case, 6, point)
                    for case in (1, 2, 3, 4)]
            # four specialisations of the whole profile, asked for nine times
            # (at w = 0 two of them coincide)
            distinct = {point.replace(**changes) for changes in (
                {}, {"w": 1}, {"w": 0}, {"q": point.q * point.w, "w": 1})}
            info = genfun._whole_series.cache_info()
            assert (info.misses, info.hits) == (len(distinct), 9 - len(distinct))
            for got in (cold, warm):
                assert got == want
                assert [repr(r) for r in got] == [repr(r) for r in want]
            assert all(report.ok for report in want)


# --- fused steps and one exponent scan per table --------------------------------
#
# The closed forms take each step as one list operation: a division by
# c + g a_m with its scale (_over_affine, on the one quotient kernel), the
# product by 1 - t at a lower order (_shrunk) and the running product's
# (f + (zt - 1) g) / t (_step_over_t).  These are the composed series forms
# they replaced, which must give the same canonical series.


def _affine(c, f, a):
    """c + f a, brought to canonical form once."""
    num = [v * f.numerator * c.denominator for v in a._num]
    num[0] += c.numerator * f.denominator * a._den
    return genfun.TruncSeries._make(
        num, c.denominator * f.denominator * a._den, a.order)


def ref_over_affine(f, c, g, a, scale=1):
    return (f / _affine(c, g, a)).scale(scale)


def ref_shrunk(f, k):
    one = genfun.TruncSeries.one(f.order)
    t = genfun.TruncSeries.monomial(1, 1, f.order)
    return genfun._cut(f, k) * genfun._cut(one - t, k)


def ref_step_over_t(f, g, z):
    k = f.order
    one = genfun.TruncSeries.one(MAX_ORDER)
    zt_less_one = genfun.TruncSeries.monomial(z, 1, MAX_ORDER) - one
    return genfun._over_t(f + genfun._cut(zt_less_one, k) * g)


def assert_same_step(got, want):
    assert_canonical(got)
    assert got == want and repr(got) == repr(want)


class TestFusedSteps:
    @settings(deadline=None, max_examples=30)
    @given(length_points)
    @example(PIN_POINTS["mixed"])
    @example(unit_point)
    def test_series_G_steps(self, point):
        # the loop of series_G, each fused step against its composed form
        x, q, u, z = point.x, point.q, point.u, point.z
        order = MAX_ORDER
        one = genfun.TruncSeries.one(order)
        r = genfun.TruncSeries.monomial(1, 1, order)
        a = genfun._cut(one - r.scale(q), order - 1)
        running = genfun._cut(genfun.TruncSeries.constant(
            z * q * (x + u - x * u), order), order - 1)
        for m, k in enumerate(range(order - 1, -1, -1)):
            shared = genfun._over_affine(running, x, u * (1 - x), a)
            assert_same_step(shared, ref_over_affine(running, x, u * (1 - x), a))
            a_shared = a * shared
            assert_same_step(
                genfun._over_affine(a_shared, x * (1 - u), u, a, x ** m),
                ref_over_affine(a_shared, x * (1 - u), u, a, x ** m))
            if k:
                running = genfun._step_over_t(shared, a_shared, z)
                assert_same_step(running, ref_step_over_t(shared, a_shared, z))
                shrunk = genfun._shrunk(a, k - 1)
                assert_same_step(shrunk, ref_shrunk(a, k - 1))
                a = shrunk

    @settings(deadline=None, max_examples=30)
    @given(points)
    @example(PIN_POINTS["mixed"])
    @example(unit_point)
    def test_series_asczero_steps(self, point):
        # the loops of both variants, each fused step against its composed form
        u, z = point.u, point.z
        order = MAX_ORDER
        one = genfun.TruncSeries.one(order)
        piece = one - genfun.TruncSeries.monomial(z, 1, order)
        running = one
        for m, k in enumerate(range(order - 1, -1, -1)):
            f = genfun._cut(running, k) * genfun._over_t(
                genfun._cut(one, k + 1) - piece)
            scale = u if m else 1
            running = genfun._over_affine(
                f, u, 1 - u, genfun._cut(piece, k), scale)
            assert_same_step(running, ref_over_affine(
                f, u, 1 - u, genfun._cut(piece, k), scale))
            if k:
                shrunk = genfun._shrunk(piece, k)
                assert_same_step(shrunk, ref_shrunk(piece, k))
                piece = shrunk
        shrink_pow = genfun._shrunk(one, order - 1)
        running = genfun._cut(genfun.TruncSeries.constant(z, order), order - 1)
        for k in range(order - 1, -1, -1):
            shrunk = shrink_pow * running
            assert_same_step(
                genfun._over_affine(shrunk, 1 - u, u, shrink_pow),
                ref_over_affine(shrunk, 1 - u, u, shrink_pow))
            if k:
                nxt = genfun._step_over_t(running, shrunk, z)
                assert_same_step(nxt, ref_step_over_t(running, shrunk, z))
                running = nxt
                shrink_pow = genfun._shrunk(shrink_pow, k - 1)

    @settings(deadline=None)
    @given(series_pairs(), coordinates, coordinates, coordinates)
    def test_steps_on_any_operands(self, pair, c, g, z):
        f, a = pair
        if c + g * a.coefficient(0):
            assert_same_step(genfun._over_affine(f, c, g, a, z),
                             ref_over_affine(f, c, g, a, z))
        else:
            with pytest.raises(DomainError):
                genfun._over_affine(f, c, g, a, z)
        for k in range(f.order + 1):
            assert_same_step(genfun._shrunk(f, k), ref_shrunk(f, k))
        # the step keeps the summand shape only when f and g share their
        # constant term; otherwise it is refused, under python -O as well
        aligned = genfun.TruncSeries((a.coefficient(0),) + f.coeffs[1:], f.order)
        assert_same_step(genfun._step_over_t(aligned, a, z),
                         ref_step_over_t(aligned, a, z))
        if f.coefficient(0) != a.coefficient(0):
            with pytest.raises(AssertionError,
                               match="summand order bound violated"):
                genfun._step_over_t(f, a, z)

    def test_a_zero_constant_term_is_refused_by_both_divisions(self):
        message = "cannot invert a series whose constant term is zero"
        f = genfun.TruncSeries((Fraction(1, 3), 2, -1), order=12)
        a = genfun.TruncSeries((2, Fraction(5, 7), 1), order=12)
        with pytest.raises(DomainError) as caught:
            f / (a - genfun.TruncSeries.constant(2, 12))
        assert str(caught.value) == message
        # 4 - 2 a has constant term 0: the fused c + g a division refuses it
        for scale in (1, Fraction(-3, 2)):
            with pytest.raises(DomainError) as caught:
                genfun._over_affine(f, Fraction(4), Fraction(-2), a, scale)
            assert str(caught.value) == message
        assert_same_step(genfun._over_affine(f, Fraction(5), Fraction(-2), a),
                         ref_over_affine(f, Fraction(5), Fraction(-2), a))


class TestOneExponentScan:
    def test_the_kept_exponent_is_the_scanned_one(self):
        assert EMPTY_IN_GROUP.top == EMPTY_ALONE.top == 0
        assert SKEWED.top == 3
        for tbl in SAMPLE_TABLES:
            assert tbl.top == max(itertools.chain.from_iterable(tbl.counts))
        whole, parts = genfun._case_profiles(6)
        for profile in (whole, *parts.values()):
            assert profile.top == max(itertools.chain.from_iterable(
                itertools.chain(*profile.values())))
        assert genfun._Profile({1: Counter(), 2: Counter()}).top == 0
