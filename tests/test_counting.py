"""The step-rule counter against enumeration and against brute force."""

import itertools
from collections import Counter

import pytest

from fishburn import counting, decomp, genfun, harness, seqcore, stats
from fishburn.errors import UsageError
from fishburn.seqcore import ClassId, Perm

from class_refs import brute_force, ref_is_member

SEQUENCE_CLASSES = [cid for cid in seqcore._RULES
                    if not cid.is_permutation_class]
PERMUTATION_CLASSES = [ClassId.PERM_ALL, ClassId.PERM_AVOID_A,
                       ClassId.PERM_AVOID_B]


def enumerated(cid, n, names):
    return harness._compute_table(cid, n, names).counts


def brute_table(members, names):
    """The table of names over members, from the public statistics."""
    return dict(Counter(tuple(stats.scalar_stats(s)[name] for name in names)
                        for s in members))


def test_every_sequence_class_has_a_step_rule():
    assert SEQUENCE_CLASSES == [ClassId.INV, ClassId.ASC, ClassId.T21,
                                ClassId.B, ClassId.C]
    assert set(seqcore._RULES) == set(ClassId)


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
        return stats.scalar_stats(s)[name]

    for n in range(1, 7):
        want = Counter(tuple(value(s, name) for name in names)
                       for s in brute_force(ClassId.ASC, n))
        assert counting.count_table(ClassId.ASC, n, names) == want, n


def test_derived_names_are_served_from_the_counted_profile():
    names = ("nasc", "max", "asc", "nasc")
    for n in range(1, 9):
        got = harness.dist_table(ClassId.ASC, n, names, use_cache=False)
        assert got.counts == enumerated(ClassId.ASC, n, names), n


@pytest.mark.parametrize("cid", PERMUTATION_CLASSES, ids=lambda c: c.name)
@pytest.mark.parametrize("names", [("des",), ("ides",), ("des", "ides"),
                                   ("ides", "des")], ids="-".join)
def test_permutation_tables_against_enumeration(cid, names):
    for n in range(1, 8):
        assert (counting.count_table(cid, n, names)
                == enumerated(cid, n, names)), n


def test_foata_table_against_enumeration():
    # (des, iasc), served as the marginal of the counted (des, ides) core
    names = ("des", "iasc")
    for n in range(1, 9):
        got = harness.dist_table(ClassId.PERM_ALL, n, names, use_cache=False)
        assert got.counts == enumerated(ClassId.PERM_ALL, n, names), n


# on ASC, B and C the shared core is the class's own, which the next test
# compares
@pytest.mark.parametrize("cid", [ClassId.INV, ClassId.T21],
                         ids=lambda c: c.name)
def test_core_tables_against_enumeration(cid):
    core = harness._SEQ_CORE
    for n in range(1, 8):
        got = harness.dist_table(cid, n, core, use_cache=False)
        assert got.counts == enumerated(cid, n, core), n


@pytest.mark.parametrize("cid", list(ClassId), ids=lambda c: c.name)
def test_each_class_core_against_enumeration(cid):
    core = harness._CORES[cid]
    for n in range(1, 8):
        got = harness.dist_table(cid, n, core, use_cache=False)
        assert got.counts == enumerated(cid, n, core), n


@pytest.mark.parametrize("cid", SEQUENCE_CLASSES, ids=lambda c: c.name)
def test_against_brute_force(cid):
    """Membership by the hand-written predicates of class_refs is the one
    reference that does not read the step rules the counter and the
    enumerator share."""
    for n in range(1, 7):
        assert (counting.count_table(cid, n, stats.SEQ_PROFILE)
                == brute_table(brute_force(cid, n), stats.SEQ_PROFILE)), n


def test_suffix_cases_against_brute_force():
    """count_cases against the ascent sequences filtered from every
    inversion sequence, read by the validating statistics and classify."""
    for n in range(1, 7):
        want = Counter()
        for s in brute_force(ClassId.ASC, n):
            sc = stats.scalar_stats(s)
            if sc["max"] < n:
                want[decomp.classify(s, "ASC_S"),
                     (sc["rep"], sc["max"], stats.ealm(s), sc["asc"],
                      sc["zero"])] += 1
        assert counting.count_cases(n) == dict(want), n


@pytest.mark.parametrize("n", [7, 8])
def test_suffix_cases_against_enumeration(n):
    """count_cases past brute force: the enumerated ascent sequences read by
    the kernel seq_profile, the validating ealm and classify."""
    slot = {name: i for i, name in enumerate(stats.SEQ_PROFILE)}
    want = Counter()
    for s in seqcore.enumerate_class(ClassId.ASC, n):
        asc, rep, zero, mx = (stats.seq_profile(s)[slot[name]]
                              for name in ("asc", "rep", "zero", "max"))
        if mx < n:
            want[decomp.classify(s, "ASC_S"),
                 (rep, mx, stats.ealm(s), asc, zero)] += 1
    assert counting.count_cases(n) == dict(want)


@pytest.mark.parametrize("cid", [ClassId.ASC, ClassId.T21],
                         ids=lambda c: c.name)
def test_the_fold_reads_each_core_key_once(cid, monkeypatch):
    """The last layer is folded before it is read, and a core key, its
    used set squashed to its size, stands for one (asc, rep, zero, max)."""
    calls = Counter()
    make_reader = counting._Layout.reader

    def reader(layout, names):
        read = make_reader(layout, names)

        def counted_read(state, folded):
            calls[folded] += 1
            return read(state, folded)
        return counted_read

    monkeypatch.setattr(counting._Layout, "reader", reader)
    table = counting.count_table(cid, 9, harness._SEQ_CORE)
    assert sum(calls.values()) == len(table) == len(calls)
    assert sum(table.values()) == genfun.fishburn_series(9).coefficient(9)


# --- the ranker ---------------------------------------------------------------

def _size(cid, n):
    return sum(counting.count_table(cid, n, ("des",) if cid.is_permutation_class
                                    else ("asc",)).values())


@pytest.mark.parametrize("cid", list(seqcore._RULES), ids=lambda c: c.name)
def test_ranks_follow_the_lexicographic_order(cid):
    for n in range(1, 8):
        rank, size = counting.ranker(cid, n)
        members = list(seqcore.enumerate_class(cid, n))
        assert members == sorted(members), n
        assert [rank(x) for x in members] == list(range(size)), n
        assert size == _size(cid, n), n


def test_sizes_reach_past_enumeration():
    want = genfun.fishburn_series(11)
    for cid in (ClassId.ASC, ClassId.T21, ClassId.B, ClassId.C):
        for n in (10, 11):
            assert counting.ranker(cid, n)[1] == _size(cid, n), (cid, n)
            assert _size(cid, n) == want.coefficient(n), (cid, n)


def _is_member(cid, word):
    """The hand-written predicate on a word of integers, a permutation class
    taking only the permutations of 1..n, as its predicate takes only a Perm
    there."""
    if cid.is_permutation_class:
        return (sorted(word) == list(range(1, len(word) + 1))
                and ref_is_member(cid, Perm(word)))
    return ref_is_member(cid, word)


@pytest.mark.parametrize("cid", list(seqcore._RULES), ids=lambda c: c.name)
def test_rank_refuses_exactly_the_non_members(cid):
    """Every word of length n <= 4 over -1..n+1: a rank exactly for the
    members, and none for a member one entry short or one entry long."""
    for n in range(1, 5):
        rank, _ = counting.ranker(cid, n)
        for word in itertools.product(range(-1, n + 2), repeat=n):
            assert (rank(word) is not None) == _is_member(cid, word), word
            if _is_member(cid, word):
                assert rank(word[:-1]) is None and rank(word + word[-1:]) is None


@pytest.mark.parametrize("cid, n", [("asc", 3), (ClassId.ASC, 0),
                                    (ClassId.T21, True)])
def test_ranker_refuses_a_bad_class_or_length(cid, n):
    with pytest.raises(UsageError):
        counting.ranker(cid, n)


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
        # des and ides over the permutation classes only, and no other
        # tracker there
        for cid in PERMUTATION_CLASSES:
            assert counting.counted(cid, ("des",)), cid
            assert counting.counted(cid, ("ides", "des", "ides")), cid
            assert not counting.counted(cid, ("asc",)), cid
            assert not counting.counted(cid, ("des", "rep")), cid
            assert not counting.counted(cid, stats.PERM_PROFILE), cid
            assert not counting.counted(cid, ("lmax",)), cid
        for cid in SEQUENCE_CLASSES:
            assert not counting.counted(cid, ("des",)), cid
            assert not counting.counted(cid, ("asc", "ides")), cid

    @pytest.mark.parametrize("cid, n, names", [
        (ClassId.ASC, 3, ("mpair",)), (ClassId.INV, 3, ("zpair",)),
        (ClassId.ASC, 3, ("mpos",)), (ClassId.ASC, 3, ()),
        (ClassId.PERM_AVOID_B, 3, ("zero",)), (ClassId.PERM_ALL, 3, ("lmax",)),
        (ClassId.ASC, 0, ("asc",)), (ClassId.ASC, True, ("asc",)),
        (ClassId.ASC, 2.0, ("asc",)),
        # a marker off its home class, and the markers with no tracker
        (ClassId.T21, 3, ("ealm",)), (ClassId.B, 3, ("rep", "ealm")),
        (ClassId.T21, 3, ("mpair",)), (ClassId.T21, 3, ("mpos",)),
        (ClassId.ASC, 3, ("zpos",)),
        # the permutation trackers off the permutation classes, and the
        # sequence trackers on them
        (ClassId.ASC, 3, ("des",)), (ClassId.PERM_ALL, 3, ("des", "rmin")),
        (ClassId.PERM_AVOID_A, 3, ("ides", "rep"))])
    def test_refused(self, cid, n, names):
        with pytest.raises(UsageError):
            counting.count_table(cid, n, names)

    @pytest.mark.parametrize("cid", ["asc", None, 0])
    def test_refuses_a_class_that_is_no_class_id(self, cid):
        with pytest.raises(UsageError) as caught:
            counting.count_table(cid, 3, ("asc",))
        assert str(caught.value) == f"expected a ClassId, got {cid!r}"

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
