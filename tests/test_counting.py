"""The step-rule counter against enumeration and against brute force."""

import itertools
from collections import Counter

import pytest

from fishburn import counting, decomp, genfun, harness, seqcore, stats
from fishburn.errors import UsageError
from fishburn.seqcore import ClassId, Seq, is_member

SEQUENCE_CLASSES = [cid for cid in seqcore._RULES
                    if not cid.is_permutation_class]


def enumerated(cid, n, names):
    return harness._compute_table(cid, n, names).counts


def brute_force(cid, n):
    """The class listed by filtering every inversion sequence with
    is_member."""
    ambient = map(Seq, itertools.product(*[range(i) for i in
                                           range(1, n + 1)]))
    return [s for s in ambient if is_member(cid, s)]


def brute_table(members, names):
    """The table of names over members, from the public statistics."""
    return dict(Counter(tuple(getattr(stats.scalar_stats(s), name)
                              for name in names) for s in members))


def test_every_sequence_class_has_a_step_rule():
    assert SEQUENCE_CLASSES == [ClassId.INV, ClassId.ASC, ClassId.T21,
                                ClassId.B, ClassId.C]


class TestAgainstEnumeration:
    @pytest.mark.parametrize("cid", SEQUENCE_CLASSES, ids=lambda c: c.name)
    def test_profile_tables(self, cid):
        top = 8 if cid is ClassId.INV else 9
        for n in range(1, top + 1):
            assert (counting.count_table(cid, n, stats.SEQ_PROFILE)
                    == enumerated(cid, n, stats.SEQ_PROFILE)), n

    @pytest.mark.parametrize("cid, names", [
        # repeated and reordered names
        (ClassId.ASC, ("max", "max", "asc", "max")),
        (ClassId.T21, ("rmin",)),
        (ClassId.B, ("zero", "rep", "max")),
        (ClassId.C, ("rmin", "rep", "asc"))])
    def test_other_requests(self, cid, names):
        for n in range(1, 9):
            assert (counting.count_table(cid, n, names)
                    == enumerated(cid, n, names)), n


# the two ascent-sequence marker tables of t_main3
MARKER_TABLES = [("rep", "max", "ealm"), ("asc", "zero", "zpair")]


@pytest.mark.parametrize("names", MARKER_TABLES, ids="-".join)
def test_marker_tables_against_enumeration(names):
    for n in range(1, 10):
        assert (counting.count_table(ClassId.ASC, n, names)
                == enumerated(ClassId.ASC, n, names)), n


@pytest.mark.parametrize("names", MARKER_TABLES, ids="-".join)
def test_marker_tables_against_brute_force(names):
    """Read by the validating markers and scalar_stats, not the kernels."""
    def value(s, name):
        if name in stats.MARKERS:
            return getattr(stats, name)(s)
        return getattr(stats.scalar_stats(s), name)

    for n in range(1, 7):
        want = Counter(tuple(value(s, name) for name in names)
                       for s in brute_force(ClassId.ASC, n))
        assert counting.count_table(ClassId.ASC, n, names) == want, n


def test_derived_names_are_served_from_the_counted_profile():
    names = ("nasc", "max", "asc", "nasc")
    for n in range(1, 9):
        got = harness.dist_table(ClassId.ASC, n, names, use_cache=False)
        assert got.counts == enumerated(ClassId.ASC, n, names), n


@pytest.mark.parametrize("cid", SEQUENCE_CLASSES, ids=lambda c: c.name)
def test_against_brute_force(cid):
    """Membership by is_member is the one reference that does not read the
    step rules the counter and the enumerator share."""
    for n in range(1, 7):
        assert (counting.count_table(cid, n, stats.SEQ_PROFILE)
                == brute_table(brute_force(cid, n), stats.SEQ_PROFILE)), n


def test_counts_reach_past_enumeration():
    # the Fishburn numbers at lengths the enumeration caps leave out
    want = genfun.fishburn_series(11)
    for cid in (ClassId.ASC, ClassId.T21, ClassId.B, ClassId.C):
        for n in (10, 11):
            table = counting.count_table(cid, n, ("asc",))
            assert sum(table.values()) == want.coefficient(n)


def test_suffix_cases_against_brute_force():
    """count_cases against the ascent sequences filtered from every
    inversion sequence, read by the validating statistics and classify."""
    for n in range(1, 7):
        want = Counter()
        for s in brute_force(ClassId.ASC, n):
            sc = stats.scalar_stats(s)
            if sc.max < n:
                want[decomp.classify(s, "ASC_S"),
                     (sc.rep, sc.max, stats.ealm(s), sc.asc, sc.zero)] += 1
        assert counting.count_cases(n) == dict(want), n


class TestRequests:
    def test_which_tables_are_counted(self):
        assert counting.counted(ClassId.ASC, stats.SEQ_PROFILE)
        assert counting.counted(ClassId.INV, ("rmin",))
        # derived statistics are served as marginals of a counted profile
        assert not counting.counted(ClassId.ASC, ("nasc",))
        assert not counting.counted(ClassId.ASC, ())
        # ealm and zpair over their home class ASC only
        assert counting.counted(ClassId.ASC, ("rep", "max", "ealm"))
        assert counting.counted(ClassId.ASC, ("zpair", "asc", "ealm"))
        for cid in SEQUENCE_CLASSES:
            if cid is not ClassId.ASC:
                assert not counting.counted(cid, ("ealm",)), cid
                assert not counting.counted(cid, ("zero", "zpair")), cid
        # mpair, mpos and zpos have no tracker
        assert not counting.counted(ClassId.T21, ("mpair",))
        assert not counting.counted(ClassId.T21, ("rep", "max", "mpair"))
        assert not counting.counted(ClassId.T21, ("mpos",))
        assert not counting.counted(ClassId.ASC, ("zpos",))
        assert not counting.counted(ClassId.ASC, ("zpair", "zpos"))
        assert not counting.counted(ClassId.PERM_AVOID_A, ("asc",))
        assert not counting.counted(ClassId.PERM_AVOID_A, stats.PERM_PROFILE)
        assert not counting.counted(ClassId.PERM_ALL, ("des",))

    @pytest.mark.parametrize("cid, n, names", [
        (ClassId.ASC, 3, ("mpair",)), (ClassId.INV, 3, ("zpair",)),
        (ClassId.ASC, 3, ("mpos",)), (ClassId.ASC, 3, ()),
        (ClassId.PERM_AVOID_B, 3, ("zero",)), (ClassId.PERM_ALL, 3, ("des",)),
        (ClassId.ASC, 0, ("asc",)), (ClassId.ASC, True, ("asc",)),
        (ClassId.ASC, 2.0, ("asc",)),
        # a marker off its home class, and the markers with no tracker
        (ClassId.T21, 3, ("ealm",)), (ClassId.B, 3, ("rep", "ealm")),
        (ClassId.T21, 3, ("mpair",)), (ClassId.T21, 3, ("mpos",)),
        (ClassId.ASC, 3, ("zpos",))])
    def test_refused(self, cid, n, names):
        with pytest.raises(UsageError):
            counting.count_table(cid, n, names)

    @pytest.mark.parametrize("n", [0, True, 2.0])
    def test_case_count_refuses_a_bad_length(self, n):
        with pytest.raises(UsageError):
            counting.count_cases(n)

    @pytest.mark.parametrize("count", [
        lambda n: counting.count_table(ClassId.ASC, n, ("asc",)),
        counting.count_cases], ids=["count_table", "count_cases"])
    @pytest.mark.parametrize("n", [0, True])
    def test_length_message(self, count, n):
        with pytest.raises(UsageError) as caught:
            count(n)
        assert str(caught.value) == f"length must be a positive integer, got {n!r}"
