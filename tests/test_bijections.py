"""Codes and bijections between the permutation and sequence classes."""

from bisect import bisect_left

import pytest

from fishburn.errors import DomainError
from fishburn.seqcore import (ClassId, Perm, Seq, contains_bivincular_A,
                              contains_bivincular_B, enumerate_class)
from fishburn import bijections as bj
from fishburn import stats

PI = Perm((6, 1, 8, 3, 2, 5, 4, 7))


# --- reference encoder ------------------------------------------------------
#
# The slice-surgery form of the labeled-interval code.  A slice is a tuple of
# (lo, hi, label) triples holding disjoint intervals in decreasing value
# order with strictly increasing labels; the intervals cover exactly the
# values not yet placed, plus 0.  Each step removes the placed value from its
# interval by one of four cases, so this form is independent of the run/label
# rule the module implements.

def _slice_step(slc, val):
    """Remove val from the slice it lies in and relabel.

    The four cases split on whether val is interior, the top, the bottom,
    or the whole of its interval.  Whenever the interval list to the right
    of the hit is reindexed, the label list is treated as extended by one
    more value (last label + 1), so the final interval's label always
    increments.
    """
    v = next(idx for idx, (lo, hi, _) in enumerate(slc) if lo <= val <= hi)
    lo, hi, lab = slc[v]
    pre = slc[:v]
    tail = slc[v + 1:]
    last_label = slc[-1][2]

    if lo < val < hi:
        shifted = _zip_shift(((lo, val - 1),) + tuple((a, b) for a, b, _ in tail),
                             tuple(l for _, _, l in tail) + (last_label + 1,))
        return pre + ((val + 1, hi, lab),) + shifted
    if lo < val == hi:
        shifted = _zip_shift(((lo, val - 1),) + tuple((a, b) for a, b, _ in tail),
                             tuple(l for _, _, l in tail) + (last_label + 1,))
        return pre + shifted
    # val == lo: the last interval always contains 0, which is never
    # placed, so the hit interval cannot be the last one here.
    assert v < len(slc) - 1
    kept = tail[:-1] + ((tail[-1][0], tail[-1][1], tail[-1][2] + 1),)
    if val == lo < hi:
        return pre + ((val + 1, hi, lab),) + kept
    return pre + kept


def _zip_shift(intervals, labels):
    return tuple((a, b, l) for (a, b), l in zip(intervals, labels))


def reference_slices(p):
    slc = ((0, len(p), 0),)
    out = [slc]
    for v in p[:-1]:
        slc = _slice_step(slc, v)
        out.append(slc)
    return out


def reference_code(p):
    return Seq(next(l for lo, hi, l in slc if lo <= v <= hi)
               for slc, v in zip(reference_slices(p), p))


# The run-list form of the same code: the runs [lo, hi] of the values not yet
# placed, plus 0, kept bottom-up, the run of each value found by bisection,
# and a fresh label list built at each step.

def _ref_relabel(labels, i, hit, lower, upper):
    return [i + 1] + [b for b in labels if (b != hit or upper) and (b != i or lower)]


def _ref_walk(p):
    runs, labels = [(0, len(p))], [0]
    for i, v in enumerate(p):
        r = bisect_left(runs, (v + 1,)) - 1
        yield runs, labels, r
        lo, hi = runs[r]
        labels = _ref_relabel(labels, i, labels[r], v > lo, v < hi)
        runs[r:r + 1] = [(lo, v - 1)] * (v > lo) + [(v + 1, hi)] * (v < hi)


def ref_bv_slices(p):
    return [tuple((lo, hi, b) for (lo, hi), b in zip(runs[::-1], labels[::-1]))
            for runs, labels, _ in _ref_walk(p)]


def ref_bv_code(p):
    return Seq(labels[r] for _, labels, r in _ref_walk(p))


# The bit-set form, read step by step: bv_code's loop as a generator, and
# the slices it passes through.  A slice lists (lo, hi, label) top down.

def _walk(p):
    """Yield each step's free set, its labels bottom-up (one list, edited
    after the yield) and the rank of the run of p[i]."""
    free, labels = (2 << len(p)) - 1, [0]
    for i, v in enumerate(p):
        r = (free & ~(free << 1) & ((2 << v) - 1)).bit_count() - 1
        yield free, labels, r
        free ^= 1 << v
        bj._relabel(labels, i, r, free >> (v - 1) & 1, free >> (v + 1) & 1)


def bv_slices(p):
    """All n slices of the permutation, starting from ((0, n, 0),)."""
    bits = lambda x: [v for v in range(len(p) + 1) if x >> v & 1]
    return [tuple(zip(bits(free & ~(free << 1)), bits(free & ~(free >> 1)), labels))[::-1]
            for free, labels, _ in _walk(p)]


def walk_code(p):
    """The code as the walk yields it."""
    return Seq._wrap(tuple([labels[r] for _, labels, r in _walk(p)]))


def _outcome(fn, p):
    try:
        return "returned", fn(p)
    except Exception as exc:  # the type and message are part of the contract
        return "raised", type(exc), str(exc)


def reference_lehmer_code(p):
    """Count, for each entry, the larger entries before it, one by one."""
    return Seq(sum(1 for j in range(i) if p[j] > v) for i, v in enumerate(p))


class TestLehmerCode:
    def test_worked_example(self):
        assert bj.lehmer_code(PI) == Seq((0, 1, 0, 2, 3, 2, 3, 1))

    def test_matches_the_reference(self):
        for n in range(1, 8):
            for p in enumerate_class(ClassId.PERM_ALL, n):
                assert bj.lehmer_code(p) == reference_lehmer_code(p)

    def test_transports_the_quadruple(self):
        for n in range(1, 7):
            for p in enumerate_class(ClassId.PERM_ALL, n):
                ps = stats.perm_stats(p)
                ss = stats.scalar_stats(bj.lehmer_code(p))
                assert (ps["des"], len(ps["LMAX"]), len(ps["LMIN"]),
                        len(ps["RMAX"])) == (ss["asc"], ss["zero"], ss["max"],
                                             ss["rmin"])

    def test_bijective_onto_inversion_sequences(self):
        for n in range(1, 7):
            codes = {bj.lehmer_code(p) for p in enumerate_class(ClassId.PERM_ALL, n)}
            assert codes == set(enumerate_class(ClassId.INV, n))


class TestIntervalCode:
    # the set statistics of a permutation, and those of its code they equal
    PERM_SIDE = ("DES", "IDES", "LMIN", "LMAX", "RMAX")
    SEQ_SIDE = ("ASC", "DIST", "MAX", "ZERO", "RMIN")

    def test_slices_of_worked_example(self):
        # each slice is a tuple of (low, high, label) triples
        assert bv_slices(PI) == [
            ((0, 8, 0),),
            ((7, 8, 0), (0, 5, 1)),
            ((7, 8, 0), (2, 5, 1), (0, 0, 2)),
            ((7, 7, 1), (2, 5, 2), (0, 0, 3)),
            ((7, 7, 1), (4, 5, 2), (2, 2, 3), (0, 0, 4)),
            ((7, 7, 1), (4, 5, 2), (0, 0, 5)),
            ((7, 7, 1), (4, 4, 5), (0, 0, 6)),
            ((7, 7, 1), (0, 0, 7)),
        ]

    def test_code_of_worked_example(self):
        assert bj.bv_code(PI) == Seq((0, 1, 0, 2, 3, 2, 5, 1))

    def test_five_set_statistics_on_worked_example(self):
        ps = stats.perm_stats(PI)
        ss = stats.set_stats(bj.bv_code(PI))
        assert ([ps[k] for k in self.PERM_SIDE]
                == [ss[k] for k in self.SEQ_SIDE])

    def test_five_set_statistics_exhaustively(self):
        for n in range(1, 6):
            for p in enumerate_class(ClassId.PERM_ALL, n):
                ps = stats.perm_stats(p)
                ss = stats.set_stats(bj.bv_code(p))
                assert ([ps[k] for k in self.PERM_SIDE]
                        == [ss[k] for k in self.SEQ_SIDE])

    def test_decode_inverts(self):
        for n in range(1, 6):
            for p in enumerate_class(ClassId.PERM_ALL, n):
                assert bj.bv_decode(bj.bv_code(p)) == p

    def test_matches_the_reference_encoder(self):
        for n in range(1, 8):
            codes = set()
            for p in enumerate_class(ClassId.PERM_ALL, n):
                code = reference_code(p)
                assert bj.bv_code(p) == code
                assert bv_slices(p) == reference_slices(p)
                assert bj.bv_decode(code) == p
                codes.add(code)
            # the bijectivity that lets bv_decode look every label up
            assert codes == set(enumerate_class(ClassId.INV, n))

    def test_matches_the_run_list_encoder(self):
        for n in range(1, 9):
            for p in enumerate_class(ClassId.PERM_ALL, n):
                assert bj.bv_code(p) == ref_bv_code(p)
                assert bv_slices(p) == ref_bv_slices(p)

    def test_matches_the_walk(self):
        """Values on every permutation to n = 8, and the exceptions on
        malformed input."""
        perms = [p for n in range(1, 9)
                 for p in enumerate_class(ClassId.PERM_ALL, n)]
        malformed = [Perm._wrap(v) for v in ((), (1,), (0, 2), (5,))]
        for p in perms + malformed:
            assert _outcome(bj.bv_code, p) == _outcome(walk_code, p), p

    def test_decode_rejects_non_inversion_sequences(self):
        for s in ((), (1,), (0, 2), (0, 1, 3)):
            with pytest.raises(DomainError):
                bj.bv_decode(Seq(s))

    def test_avoiders_code_onto_the_b_class(self):
        for n in range(1, 6):
            image = {bj.bv_code(p)
                     for p in enumerate_class(ClassId.PERM_AVOID_A, n)}
            assert image == set(enumerate_class(ClassId.B, n))


class TestSubtractionMaps:
    def test_beta_worked_example_with_trace(self):
        trace = []
        out = bj.beta(Seq((0, 1, 0, 2, 3, 2, 5, 1, 7)), _trace=trace)
        assert out == Seq((0, 1, 0, 2, 3, 2, 4, 1, 5))
        assert trace == [
            (7, Seq((0, 1, 0, 2, 3, 2, 5, 1, 6))),
            (5, Seq((0, 1, 0, 2, 3, 2, 4, 1, 5))),
            (2, Seq((0, 1, 0, 2, 3, 2, 4, 1, 5))),
        ]

    def test_beta_inv_worked_example_with_trace(self):
        trace = []
        out = bj.beta_inv(Seq((0, 1, 0, 2, 3, 2, 4, 1, 5)), _trace=trace)
        assert out == Seq((0, 1, 0, 2, 3, 2, 5, 1, 7))
        assert trace == [
            (2, Seq((0, 1, 0, 2, 3, 2, 4, 1, 5))),
            (5, Seq((0, 1, 0, 2, 3, 2, 5, 1, 6))),
            (7, Seq((0, 1, 0, 2, 3, 2, 5, 1, 7))),
        ]

    def test_gamma_pair_worked_example_with_traces(self):
        # the ascent sequence of the beta example, sent through class C
        s = Seq((0, 1, 0, 2, 3, 2, 4, 1, 5))
        trace = []
        c = bj.gamma_inv(s, _trace=trace)
        assert c == Seq((0, 1, 0, 3, 4, 3, 6, 1, 8))
        assert trace == [
            (2, Seq((0, 1, 0, 3, 4, 3, 5, 1, 6))),
            (5, Seq((0, 1, 0, 3, 4, 3, 6, 1, 7))),
            (7, Seq((0, 1, 0, 3, 4, 3, 6, 1, 8))),
        ]
        trace = []
        assert bj.gamma(c, _trace=trace) == s
        assert trace == [
            (7, Seq((0, 1, 0, 3, 4, 3, 6, 1, 7))),
            (5, Seq((0, 1, 0, 3, 4, 3, 5, 1, 6))),
            (2, Seq((0, 1, 0, 2, 3, 2, 4, 1, 5))),
        ]

    def test_beta_small(self):
        assert bj.beta(Seq((0, 0, 0, 2))) == Seq((0, 0, 0, 1))

    def test_beta_bijective_with_all_five_set_statistics(self):
        for n in range(1, 6):
            image = set()
            for b in enumerate_class(ClassId.B, n):
                s = bj.beta(b)
                assert bj.beta_inv(s) == b
                image.add(s)
                vb, vs = stats.set_stats(b), stats.set_stats(s)
                kept = ("ASC", "DIST", "MAX", "ZERO", "RMIN")
                assert [vb[k] for k in kept] == [vs[k] for k in kept]
            assert image == set(enumerate_class(ClassId.ASC, n))

    def test_gamma_small(self):
        assert bj.gamma(Seq((0, 0, 2))) == Seq((0, 0, 1))

    def test_gamma_bijective_with_four_set_statistics(self):
        # the fifth set statistic MAX is not preserved here
        for n in range(1, 6):
            image = set()
            for c in enumerate_class(ClassId.C, n):
                s = bj.gamma(c)
                assert bj.gamma_inv(s) == c
                image.add(s)
                vc, vs = stats.set_stats(c), stats.set_stats(s)
                kept = ("ASC", "DIST", "ZERO", "RMIN")
                assert [vc[k] for k in kept] == [vs[k] for k in kept]
            assert image == set(enumerate_class(ClassId.ASC, n))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            bj.beta(Seq((0, 0, 2)))
        with pytest.raises(DomainError):
            bj.gamma(Seq((0, 0, 1)))
        with pytest.raises(DomainError):
            bj.beta_inv(Seq((0, 2)))


class TestComposedBijections:
    def test_psi_is_code_then_subtraction(self):
        out = bj.psi(PI)
        assert out == Seq((0, 1, 0, 2, 3, 2, 4, 1))
        assert out == bj.beta(bj.bv_code(PI))

    def test_psi_round_trip(self):
        for n in range(1, 6):
            for p in enumerate_class(ClassId.PERM_AVOID_A, n):
                assert bj.psi_inv(bj.psi(p)) == p

    def test_phi_round_trip(self):
        for n in range(1, 6):
            for p in enumerate_class(ClassId.PERM_AVOID_B, n):
                assert bj.phi_inv(bj.phi(p)) == p

    @pytest.mark.parametrize("name, p, code", [
        ("psi", PI, (0, 0, 2)),               # outside B
        ("phi", Perm((7, 5, 8, 3, 2, 4, 1, 6)), (0, 0, 1)),  # outside C
    ])
    def test_code_outside_the_class_breaks_the_invariant(
            self, monkeypatch, name, p, code):
        # an AssertionError raised by hand, so it holds under python -O too
        monkeypatch.setattr(bj, "bv_code", lambda _: Seq(code))
        with pytest.raises(AssertionError) as info:
            getattr(bj, name)(p)
        assert str(info.value) == (
            f"code of {p.to_text()} left the expected class: {code!r}")

    def test_pattern_membership_enforced(self):
        with pytest.raises(DomainError):
            bj.psi(Perm((2, 3, 1)))
        with pytest.raises(DomainError):
            bj.phi(Perm((1, 3, 2)))


class TestUpsilon:
    def test_smallest_nontrivial_value(self):
        assert bj.upsilon(Seq((0, 0))) == Seq((0, 1))

    def test_permutes_each_class_and_swaps_the_quadruple(self):
        for n in range(1, 7):
            members = set(enumerate_class(ClassId.ASC, n))
            image = set()
            for s in members:
                u = bj.upsilon(s)
                image.add(u)
                a, b = stats.scalar_stats(s), stats.scalar_stats(u)
                assert (a["asc"], a["rep"], a["zero"], a["max"]) == (
                    b["rep"], b["asc"], b["rmin"], b["zero"])
            assert image == members

    def test_rejects_non_members(self):
        with pytest.raises(DomainError):
            bj.upsilon(Seq((0, 2)))


# The exact refusal of every guard on the empty object and on non-members of
# its domain: one whose entries leave their bounds and, where the domain is
# narrower than the inversion sequences, one inversion sequence outside it.
GUARD_REFUSALS = [
    ("beta", (), "not in the subtraction domain: ()"),
    ("beta", (0, 2), "not in the subtraction domain: (0, 2)"),
    ("beta", (0, 0, 2), "not in the subtraction domain: (0, 0, 2)"),
    ("gamma", (), "not in the subtraction domain: ()"),
    ("gamma", (1,), "not in the subtraction domain: (1,)"),
    ("gamma", (0, 0, 1), "not in the subtraction domain: (0, 0, 1)"),
    ("bv_decode", (), "not an inversion sequence: ()"),
    ("bv_decode", (0, 2), "not an inversion sequence: (0, 2)"),
] + [(name, s, f"not an ascent sequence: {s!r}")
     for name in ("beta_inv", "gamma_inv", "psi_inv", "phi_inv", "upsilon")
     for s in ((), (1,), (0, 0, 2))]


@pytest.mark.parametrize("name, s, message", GUARD_REFUSALS)
def test_guard_refusals(name, s, message):
    with pytest.raises(DomainError) as info:
        getattr(bj, name)(Seq(s))
    assert str(info.value) == message


@pytest.mark.parametrize("name, p", [("psi", (2, 3, 1)), ("phi", (1, 3, 2)),
                                     ("psi", (3, 4, 1, 2))])
def test_pattern_refusals(name, p):
    with pytest.raises(DomainError) as info:
        getattr(bj, name)(Perm(p))
    assert str(info.value) == (
        f"{Perm(p).to_text()} contains the forbidden pattern")



@pytest.mark.parametrize("name", ["psi", "phi"])
def test_the_empty_permutation_is_refused_up_front(name):
    with pytest.raises(DomainError) as info:
        getattr(bj, name)(Perm(()))
    assert str(info.value) == f"{name} is defined for non-empty permutations"

def test_the_empty_permutation_contains_neither_pattern():
    assert contains_bivincular_A(Perm(())) is False
    assert contains_bivincular_B(Perm(())) is False


@pytest.mark.parametrize("name, s, p", [
    ("psi_inv", (0, 1), (2, 3, 1)),  # contains the pattern of A
    ("phi_inv", (0, 1), (1, 3, 2)),  # contains the pattern of B
])
def test_decode_into_the_pattern_breaks_the_invariant(monkeypatch, name, s,
                                                      p):
    # an AssertionError raised by hand, so it holds under python -O too
    monkeypatch.setattr(bj, "bv_decode", lambda _: Perm(p))
    with pytest.raises(AssertionError) as info:
        getattr(bj, name)(Seq(s))
    assert str(info.value) == (
        f"decoded permutation {Perm(p).to_text()} contains the forbidden "
        "pattern")
