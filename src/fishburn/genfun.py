"""Exact truncated power series in t and the closed-form generating functions.

Only the length variable t stays symbolic.  The marker variables x, q, u, z, w
are specialized to exact rationals before any series arithmetic happens, so
every identity in this package is checked by exact coefficient comparison.
No floating point anywhere.

Fractions are the interface, not the arithmetic.  A TruncSeries holds its
coefficients in canonical integer form, numerators over one positive
denominator with no factor common to all of them.  Every series operation
works on those integers and normalises its result once; the Fraction
coefficients are built only when read.  One quotient recurrence (_quotient)
serves every division, and one kernel of diagonal sums every product of
two series.  The weighted sums that evaluate tables reduce each to one
integer over one denominator, from power tables built once per point, to an
exponent scanned once per table.

The closed forms (series_G, series_zeromax and the two series_asczero
variants; fishburn_series is series_zeromax at q = z = 1) share one shape:
the m-th summand is t^(m+1) (r^(m+1) in series_G, with r = (x+u-xu) t)
times a series built at order - m - 1 only.
Each step is one list operation, with no throwaway series: a product by
1 - t is a difference of shifted numerators (_shrunk); a new factor gives up
its t in the step that multiplies it in (_over_t, _step_over_t, which refuse
a nonzero constant term); a scaled division by c + g a_m is one quotient
(_over_affine); and the summands are added up once, over one denominator
(_add_up).  Orders below 1 exist only inside this module.

The case identities compare the closed forms with the five-marker profiles
of the suffix cases, which counting.count_cases counts over the ASC step
rule: nothing here enumerates a class.

Marker conventions, used consistently by every function here:
    x -> rep,  q -> max,  u -> asc,  z -> zero,  w -> ealm (or an ealm-like
    pairing marker when a table tracks mpair or zpair instead).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import gcd, lcm, prod
from operator import add, mul, sub

from . import counting
from .errors import DomainError, ResourceLimitError, UsageError, invariant
from .seqcore import ClassId, cap, check_size

DEFAULT_ORDER = 9


def _as_fraction(value) -> Fraction:
    # the one rational parser: strings like "2/3" come straight from CLI flags
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"not an exact rational: {value!r} (write e.g. 2/3)")
    raise UsageError(f"expected an exact rational, got {type(value).__name__}")


def _check_order(order) -> int:
    limit = cap("series")
    if check_size(order, "series order") > limit:
        raise ResourceLimitError(
            f"series order {order} exceeds the cap of {limit}")
    return order


class TruncSeries:
    """A power series in t truncated at a fixed order, with rational coefficients.

    The series is held in canonical integer form: a tuple `_num` of integer
    numerators over one positive integer denominator `_den`, with
    gcd(_den, *_num) == 1.  That form is unique for a given coefficient
    vector, so equality and hashing compare it directly.  Every operation
    works on the integers and normalises its result once; `coeffs`, the
    tuple of Fraction coefficients, is built anew on each read.

    Instances are immutable.  Arithmetic is exact and closed at the common
    order; mixing two different orders is refused rather than silently
    truncating.  Division requires the divisor to have a nonzero constant
    term, otherwise a DomainError is raised.
    """

    __slots__ = ("order", "_num", "_den")

    def __new__(cls, coeffs=(), order=None):
        vals = [_as_fraction(c) for c in coeffs]
        if order is None:
            order = len(vals) - 1
        _check_order(order)
        del vals[order + 1:]
        vals.extend([Fraction(0)] * (order + 1 - len(vals)))
        den = lcm(*[v.denominator for v in vals])
        return cls._make([v.numerator * (den // v.denominator) for v in vals],
                         den, order)

    @classmethod
    def _make(cls, num: list, den: int, order: int) -> "TruncSeries":
        """The series num / den (den > 0, exactly order + 1 numerators of a
        checked order, or of a lower one inside the closed forms), brought
        to canonical form: the one writer of the slots."""
        g = gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
        # slot descriptors write past the guard, cheaper than __setattr__
        self = object.__new__(cls)
        _set_order(self, order)
        # tuple() of a list, not of a generator: a tuple built from a
        # generator is resized, and from order 10 on the resized tuples pile
        # up in the interpreter's tuple free list (about 0.3 MB of peak RSS)
        _set_num(self, tuple(num))
        _set_den(self, den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients of t^0..t^order as normalised Fractions."""
        return tuple([Fraction(v, self._den) for v in self._num])

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls.monomial(0, 0, order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def constant(cls, c, order: int) -> "TruncSeries":
        return cls.monomial(c, 0, order)

    @classmethod
    def monomial(cls, c, power: int, order: int) -> "TruncSeries":
        if power < 0:
            raise UsageError("monomial power must be nonnegative")
        c = _as_fraction(c)
        num = [0] * (_check_order(order) + 1)
        if power <= order:
            num[power] = c.numerator
        return cls._make(num, c.denominator, order)

    def _match(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise UsageError(f"order mismatch: {self.order} vs {other.order}")

    def _plus(self, other, sign: int):
        # self + sign * other over the lcm of the two denominators
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._match(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        return TruncSeries._make(
            [a * fa + b * fb for a, b in zip(self._num, other._num)],
            den, self.order)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return TruncSeries._make([-a for a in self._num], self._den, self.order)

    def scale(self, c) -> "TruncSeries":
        c = _as_fraction(c)
        return TruncSeries._make([a * c.numerator for a in self._num],
                                 self._den * c.denominator, self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        self._match(other)
        na, nb = self._num, other._num
        num = [sum(map(mul, na[:k + 1], nb[k::-1]))
               for k in range(self.order + 1)]
        return TruncSeries._make(num, self._den * other._den, self.order)

    __rmul__ = scale

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse, defined only for a unit constant term."""
        return TruncSeries.one(self.order) / self

    def __truediv__(self, other):
        if not isinstance(other, TruncSeries):
            c = _as_fraction(other)
            if c == 0:
                raise DomainError("division of a series by zero")
            return self.scale(Fraction(1) / c)
        self._match(other)
        return _quotient(self._num, self._den, other._num, other._den,
                         self.order)

    def truncate(self, order: int) -> "TruncSeries":
        """The same series cut at a lower order.

        Exact for every truncated operation here: coefficient k of a sum,
        a product or a quotient depends only on coefficients <= k.
        """
        if _check_order(order) > self.order:
            raise UsageError(f"cannot truncate order {self.order} to {order}")
        return _cut(self, order)

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise UsageError(f"coefficient index {k} outside 0..{self.order}")
        return Fraction(self._num[k], self._den)

    def vanishes_below(self, k: int) -> bool:
        """True when every coefficient of t^0..t^(k-1) is zero (always for
        k <= 0, as there are none)."""
        return k <= 0 or not any(self._num[:k])

    def as_integers(self) -> list:
        """Coefficients as ints; refuses if any coefficient is fractional."""
        for i, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise UsageError(f"coefficient of t^{i} is not an integer: {c}")
        return list(self._num)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.order == other.order and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        return hash((self.order, self._num, self._den))

    def __reduce__(self):
        # copy and pickle rebuild through _make: the slots refuse setattr
        return TruncSeries._make, (list(self._num), self._den, self.order)

    def __repr__(self):
        return f"TruncSeries(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"


_set_order, _set_num, _set_den = [
    TruncSeries.__dict__[name].__set__ for name in TruncSeries.__slots__]


def _quotient(num, den, dnum, dden, order: int, scale=1) -> TruncSeries:
    """(num / den) scale / (dnum / dden) at the given order, in canonical
    form, from numerator lists: the one quotient recurrence, which serves
    `/` and the fused divisions of the closed forms."""
    if not dnum[0]:
        raise DomainError("cannot invert a series whose constant term is zero")
    # The integer series s / d has coefficient k = M_k / d_0^(k+1), where
    # M_k = s_k d_0^k - sum_{j=1..k} d_j d_0^(j-1) M_(k-j) (Knuth, TAOCP
    # vol. 2, 4.7); over d_0^(order+1) its numerator is M_k d_0^(order-k).
    pows = [dnum[0] ** k for k in range(order + 2)]
    scaled = list(map(mul, dnum[1:], pows))
    back = []                  # M_(k-1), ..., M_0: newest first, as read
    for k in range(order + 1):
        back.insert(0, num[k] * pows[k] - sum(map(mul, scaled, back)))
    # the denominator must be positive, and d_0^(order+1) may not be
    lift = dden * scale.numerator if pows[-1] > 0 else -dden * scale.numerator
    return TruncSeries._make(
        [lift * m * p for m, p in zip(reversed(back), pows[order::-1])],
        den * abs(pows[-1]) * scale.denominator, order)


def _over_affine(f: TruncSeries, c: Fraction, g: Fraction, a: TruncSeries,
                 scale=1) -> TruncSeries:
    """f scale / (c + g a) in one division: the divisor stays a numerator
    list over its denominator, and the scale goes into the quotient."""
    dden = c.denominator * g.denominator * a._den
    dnum = [v * g.numerator * c.denominator for v in a._num]
    dnum[0] += c.numerator * g.denominator * a._den
    return _quotient(f._num, f._den, dnum, dden, f.order, scale)


@dataclass(frozen=True)
class SpecPoint:
    """An exact rational value for each marker variable."""

    x: Fraction = Fraction(1)
    q: Fraction = Fraction(1)
    u: Fraction = Fraction(1)
    z: Fraction = Fraction(1)
    w: Fraction = Fraction(1)

    def __post_init__(self):
        for name in "xquzw":
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))

    def as_dict(self) -> dict:
        return {name: str(getattr(self, name)) for name in "xquzw"}


def admissible_for_length_series(point: SpecPoint) -> bool:
    """Whether the closed-form length series can be evaluated at the point.

    Every denominator in the sum has constant term x + u - x*u (the three
    written forms x+u-xu, x(1-u)+u and x+u(1-x) are the same polynomial),
    so this single condition covers all of them.
    """
    return point.x + point.u - point.x * point.u != 0


def admissible_for_case_identity(point: SpecPoint) -> bool:
    # the identities carry 1/(1-w) and 1/q prefactors
    return point.w != 1 and point.q != 0


def random_point(rng, constraint=None) -> SpecPoint:
    """Draw a small-height positive rational for each marker variable.

    Numerators and denominators are uniform in 1..10; the draw is repeated
    until the optional constraint predicate accepts the point.  Draw order
    is x, q, u, z, w, so a fixed seed reproduces the same point.
    """
    while True:
        point = SpecPoint(*[Fraction(rng.randint(1, 10), rng.randint(1, 10))
                            for _ in range(5)])
        if constraint is None or constraint(point):
            return point


def _cut(f: TruncSeries, order: int) -> TruncSeries:
    """f at a lower order, which inside this module may be 0."""
    return TruncSeries._make(list(f._num[:order + 1]), f._den, order)


def _over_t(f: TruncSeries) -> TruncSeries:
    """f / t, exactly, one order lower: the factor of t that each new factor
    of a summand carries.  A nonzero constant term breaks the summand shape."""
    invariant(not f._num[0], "summand order bound violated")
    return TruncSeries._make(list(f._num[1:]), f._den, f.order - 1)


def _step_over_t(f: TruncSeries, g: TruncSeries, z: Fraction) -> TruncSeries:
    """(f + (zt - 1) g) / t, one order lower, in one list step: the next
    running product of series_G and of the alternative series_asczero."""
    den = lcm(f._den, g._den)
    ff, fg = den // f._den * z.denominator, den // g._den
    fz, fg = fg * z.numerator, fg * z.denominator
    invariant(f._num[0] * ff == g._num[0] * fg, "summand order bound violated")
    return TruncSeries._make(
        [a * ff - b * fg + c * fz
         for a, b, c in zip(f._num[1:], g._num[1:], g._num)],
        den * z.denominator, f.order - 1)


def _shrunk(f: TruncSeries, order: int) -> TruncSeries:
    """f (1 - t) at a lower order: one difference of shifted numerators."""
    return TruncSeries._make(
        list(map(sub, f._num[:order + 1], chain((0,), f._num))), f._den, order)


def _add_up(parts, order: int, base: Fraction = Fraction(1)) -> TruncSeries:
    """sum_m (base t)^(m+1) parts[m](base t) at the given order, where
    parts[m], the m-th summand over its factor t^(m+1), has order
    order - m - 1.  One common denominator, one canonical form."""
    den = lcm(*[p._den for p in parts])
    num = [0] * (order + 1)
    for m, p in enumerate(parts):
        num[m + 1:] = map(add, num[m + 1:], map(mul, repeat(den // p._den), p._num))
    a, b = base.numerator, base.denominator
    return TruncSeries._make(
        [v * a ** k * b ** (order - k) for k, v in enumerate(num)],
        den * b ** order, order)


def fishburn_series(order: int = DEFAULT_ORDER) -> TruncSeries:
    """Series whose t^n coefficient is the common size of all six classes.

    Computes sum over m >= 1 of prod_{i=1..m} (1 - (1-t)^i): series_zeromax
    at q = z = 1, summand by summand.  There its lead qzt is the first factor
    1 - (1-t) = t, and its factor 1 - (1-zt)(1-qt)(1-t)^i is factor i + 2
    here, so the m-th summand here is summand m - 1 of series_zeromax.
    """
    return series_zeromax(order, 1, 1)


def series_G(order: int = DEFAULT_ORDER, point: SpecPoint | None = None) -> TruncSeries:
    """Length series of ascent sequences with all four scalar markers.

    The t^n coefficient equals the sum over ascent sequences of length n of
    x^rep q^max u^asc z^zero, evaluated at the point (w is ignored).
    Implements the closed form

        sum_{m>=0} zqr x^m a_m (x+u-xu)
                   / ([x(1-u) + u a_m] [x + u(1-x) a_m])
                   * prod_{i<m} [1 + (zr-1) a_i] / [x + u(1-x) a_i]

    with r = t (x+u-xu) and a_m = (1-qr)(1-r)^m.  The lead and each factor
    of the product carry r, so the m-th summand is r^(m+1) times a series
    in r built at order - m - 1 only; the sum is taken in r and rescaled
    to t once.
    """
    order = _check_order(order)
    point = point or SpecPoint()
    x, q, u, z = point.x, point.q, point.u, point.z
    mix = x + u - x * u
    if mix == 0:
        raise DomainError(
            "inadmissible point: x + u - x*u = 0, which is the constant "
            "term of every denominator in the sum")
    one = TruncSeries.one(order)
    r = TruncSeries.monomial(1, 1, order)     # the variable is r here
    a = _cut(one - r.scale(q), order - 1)     # a_m, at order k
    # the product over i < m, over r^m, times zq (x+u-xu)
    running = _cut(TruncSeries.constant(z * q * mix, order), order - 1)
    # the two denominators are left + u a_m and right + u(1-x) a_m
    left, right, right_factor = x * (1 - u), x, u * (1 - x)
    parts = []
    for m, k in enumerate(range(order - 1, -1, -1)):
        # one quotient and one full product serve the term and the next
        # running product, (1 + (zr-1) a_m) shared = shared + (zr-1) a_shared
        shared = _over_affine(running, right, right_factor, a)
        a_shared = a * shared
        parts.append(_over_affine(a_shared, left, u, a, x ** m))
        if k:
            running = _step_over_t(shared, a_shared, z)
            a = _shrunk(a, k - 1)
    return _add_up(parts, order, mix)


def series_zeromax(order: int = DEFAULT_ORDER, q=1, z=1) -> TruncSeries:
    """Joint length series of (zero, max) on ascent sequences.

    Computes sum over m >= 0 of qzt prod_{i<m} [1 - (1-zt)(1-qt)(1-t)^i].
    The formula is literally symmetric in q and z.  Each factor carries t,
    so the m-th summand is t^(m+1) times a series built at order - m - 1.
    """
    order = _check_order(order)
    q, z = _as_fraction(q), _as_fraction(z)
    one = TruncSeries.one(order)
    t = TruncSeries.monomial(1, 1, order)
    # (1-zt)(1-qt)(1-t)^m, at order k
    drop = _cut((one - t.scale(z)) * (one - t.scale(q)), order - 1)
    running = _cut(TruncSeries.constant(q * z, order), order - 1)
    parts = []
    for k in range(order - 1, -1, -1):
        parts.append(running)
        if k:
            running = _cut(running, k - 1) * _over_t(_cut(one, k) - drop)
            drop = _shrunk(drop, k - 1)
    return _add_up(parts, order)


ASCZERO_VARIANTS = ("primitive", "alternative")


def series_asczero(order: int = DEFAULT_ORDER, u=1, z=1,
                   variant: str = "primitive") -> TruncSeries:
    """Joint length series of (asc, zero) on ascent sequences, two ways.

    variant "primitive":
        sum_{m>=0} u^m prod_{i=0..m} [1-(1-zt)(1-t)^i] / [u+(1-u)(1-zt)(1-t)^i]
    variant "alternative":
        sum_{m>=0} zt(1-t)^(m+1) / [1-u+u(1-t)^(m+1)]
                   * prod_{i<m} [1-(1-zt)(1-t)^(i+1)]

    Both denominators have constant term 1 regardless of u and z, so every
    point is admissible.  Each factor of a numerator product carries t, so
    the m-th summand is t^(m+1) times a series built at order - m - 1.
    """
    order = _check_order(order)
    u, z = _as_fraction(u), _as_fraction(z)
    one = TruncSeries.one(order)
    parts = []
    if variant == "primitive":
        piece = one - TruncSeries.monomial(z, 1, order)  # (1-zt)(1-t)^m
        running = one    # u^m times the product over i <= m, over t^(m+1)
        for m, k in enumerate(range(order - 1, -1, -1)):
            running = _over_affine(
                _cut(running, k) * _over_t(_cut(one, k + 1) - piece),
                u, 1 - u, _cut(piece, k), u if m else 1)
            parts.append(running)
            if k:
                piece = _shrunk(piece, k)
        return _add_up(parts, order)
    if variant == "alternative":
        shrink_pow = _shrunk(one, order - 1)   # (1-t)^(m+1), at order k
        # the product over i < m, over t^m, times z
        running = _cut(TruncSeries.constant(z, order), order - 1)
        for k in range(order - 1, -1, -1):
            # one full product serves the term and the next running product
            shrunk = shrink_pow * running
            parts.append(_over_affine(shrunk, 1 - u, u, shrink_pow))
            if k:
                running = _step_over_t(running, shrunk, z)
                shrink_pow = _shrunk(shrink_pow, k - 1)
        return _add_up(parts, order)
    raise UsageError(
        f"unknown variant {variant!r}; expected one of: {', '.join(ASCZERO_VARIANTS)}")


# Which marker variable tracks which statistic when evaluating a table.
MARKER_VARS = {"rep": "x", "max": "q", "asc": "u", "zero": "z",
               "ealm": "w", "mpair": "w", "zpair": "w"}


@dataclass(frozen=True)
class DistTable:
    """Joint distribution of some statistics over one class at one length.

    counts maps a tuple of statistic values (aligned with stats) to the
    number of class members realizing it.  The total over all tuples equals
    the class cardinality at length n.
    """

    class_id: ClassId
    n: int
    stats: tuple
    counts: dict

    def total(self) -> int:
        return sum(self.counts.values())

    @cached_property
    def top(self) -> int:      # the largest exponent, scanned once
        return max(chain.from_iterable(self.counts), default=0)


class _Powers:
    """Power tables of some bases up to a largest exponent `top`, for the
    sums of count * prod(base ** e) over {exponents: count} maps, exactly.

    A base a/b contributes the integer a^e b^(top-e) to a term, so every sum
    is one integer over den = prod(b)^top.  One table serves every map whose
    exponents stay within top: all lengths of a point at once.
    """

    def __init__(self, bases, top: int):
        self.tables = [[b.numerator ** e * b.denominator ** (top - e)
                        for e in range(top + 1)] for b in bases]
        self.den = prod([b.denominator for b in bases]) ** top

    def total(self, counts) -> int:
        """The sum over counts, times den, column by column: every lookup
        and product runs in C."""
        columns = [map(table.__getitem__, exponents) for table, exponents
                   in zip(self.tables, zip(*counts))]
        return sum(map(prod, zip(counts.values(), *columns)))


def _marker_values(names: tuple, point: SpecPoint) -> list:
    values = []
    for name in names:
        var = MARKER_VARS.get(name)
        if var is None:
            raise UsageError(
                f"statistic {name!r} has no marker variable; "
                f"usable: {', '.join(sorted(MARKER_VARS))}")
        values.append(getattr(point, var))
    return values


def eval_gf(table, point: SpecPoint):
    """Evaluate a distribution table (or several) at a rational point.

    A single DistTable yields one Fraction.  An iterable of tables yields a
    list indexed by length n, with a zero entry for any length not covered;
    the tables of one statistic tuple share one power table.
    """
    if isinstance(table, DistTable):
        return eval_gf([table], point)[table.n]
    tables = list(table)
    out = [Fraction(0)] * (max((tbl.n for tbl in tables), default=0) + 1)
    groups = {}
    for tbl in tables:
        groups.setdefault(tbl.stats, []).append(tbl)
    for names, group in groups.items():
        powers = _Powers(_marker_values(names, point),
                         max([tbl.top for tbl in group]))
        for tbl in group:
            out[tbl.n] += Fraction(powers.total(tbl.counts), powers.den)
    return out


class _Profile(dict):
    """{n: Counter of five-marker keys} for the lengths 1..order."""

    @cached_property
    def top(self) -> int:      # the largest exponent, scanned once
        return max(chain.from_iterable(chain(*self.values())), default=0)


@lru_cache(maxsize=4)
def _case_profiles(order: int):
    """Five-marker profiles of all non-identity-run ascent sequences.

    Returns (whole, parts).  A profile maps each length n = 1..order to a
    Counter keyed by (rep, max, ealm, asc, zero); whole covers every
    sequence with length > max, and parts splits the same population by
    suffix case S1..S4.  Counted over the step rule (counting.count_cases),
    with no enumeration.
    """
    whole = _Profile({n: Counter() for n in range(1, order + 1)})
    parts = {f"S{case}": _Profile({n: Counter() for n in whole})
             for case in range(1, 5)}
    for n in whole:
        for (case, key), count in counting.count_cases(n).items():
            whole[n][key] += count
            parts[case][n][key] += count
    return whole, parts


def _profile_series(profile, order: int, point: SpecPoint) -> TruncSeries:
    lengths = range(1, order + 1)
    powers = _Powers((point.x, point.q, point.w, point.u, point.z),
                     profile.top)
    return TruncSeries._make([0] + [powers.total(profile[n]) for n in lengths],
                             powers.den, order)


@lru_cache(maxsize=4)
def _whole_series(order: int, point: SpecPoint) -> TruncSeries:
    """The series of the whole case population at a point.

    The four identities ask for four specialisations of one point, nine
    times in all; four entries hold them until the next point.
    """
    return _profile_series(_case_profiles(order)[0], order, point)


@dataclass(frozen=True)
class IdentityReport:
    case: int
    order: int
    point: SpecPoint
    ok: bool
    lhs: TruncSeries
    rhs: TruncSeries


def check_case_identity(case: int, order: int = DEFAULT_ORDER,
                        point: SpecPoint | None = None) -> IdentityReport:
    """Compare one suffix-case identity against the counted populations.

    The left side is the five-marker series of the case subset, summed from
    its counted profile.  The right side is the closed form, whose inner
    series values are themselves taken from the profile of the whole
    population at modified points.  Requires w != 1 and q != 0.
    """
    order = _check_order(order)
    if (not isinstance(case, int) or isinstance(case, bool)
            or case not in (1, 2, 3, 4)):
        raise UsageError(f"case must be 1..4, got {case!r}")
    if point is None:
        raise UsageError("a point with all five marker values is required")
    if point.w == 1:
        raise DomainError(
            "inadmissible point: w = 1 (the identities carry 1/(1-w))")
    if point.q == 0:
        raise DomainError(
            "inadmissible point: q = 0 (case 4 carries a 1/q factor)")
    x, q, u, z, w = point.x, point.q, point.u, point.z, point.w
    lhs = _profile_series(_case_profiles(order)[1][f"S{case}"], order, point)

    def inner(**changes) -> TruncSeries:
        return _whole_series(order, replace(point, **changes))

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
    return IdentityReport(case, order, point, lhs == rhs, lhs, rhs)
