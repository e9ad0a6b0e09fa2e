"""Enumeration, membership and text forms for the core classes."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from fishburn import counting, genfun, harness, seqcore
from fishburn.errors import DomainError, ResourceLimitError, UsageError
from fishburn.seqcore import (
    ClassId,
    Perm,
    Seq,
    enumerate_class,
    is_member,
    perm_transform,
)

from class_refs import (brute_force, contains_bivincular_A,
                        contains_bivincular_B, is_inversion, ref_is_member)

FISHBURN_COUNTS = [1, 2, 5, 15, 53, 217, 1014]


def listed(class_id, n, **kw):
    return [tuple(x) for x in enumerate_class(class_id, n, **kw)]


class TestCounts:
    def test_ascent_sequence_counts(self):
        got = [len(listed(ClassId.ASC, n)) for n in range(1, 8)]
        assert got == FISHBURN_COUNTS

    def test_fishburn_classes_share_counts(self):
        for n in range(1, 8):
            want = FISHBURN_COUNTS[n - 1]
            assert len(listed(ClassId.T21, n)) == want
            assert len(listed(ClassId.B, n)) == want
            assert len(listed(ClassId.C, n)) == want

    def test_pattern_avoiding_permutation_counts(self):
        for n in range(1, 7):
            want = FISHBURN_COUNTS[n - 1]
            assert len(listed(ClassId.PERM_AVOID_A, n)) == want
            assert len(listed(ClassId.PERM_AVOID_B, n)) == want

    def test_unrestricted_counts_are_factorials(self):
        for n in range(1, 7):
            assert len(listed(ClassId.INV, n)) == math.factorial(n)
            assert len(listed(ClassId.PERM_ALL, n)) == math.factorial(n)


class TestGoldenListings:
    def test_ascent_sequences_length_three(self):
        assert listed(ClassId.ASC, 3) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    def test_drop_avoiders_length_three(self):
        # (0,1,0) has a value one below an earlier entry, everything else is fine
        assert listed(ClassId.T21, 3) == [
            (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2)]

    def test_b_class_length_three(self):
        # (0,0,2) puts a maximal entry after the non-ascent at position 1
        assert listed(ClassId.B, 3) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    def test_c_class_length_three(self):
        # (0,0,1) repeats the value 1 = i after the non-ascent at i = 1
        assert listed(ClassId.C, 3) == [
            (0, 0, 0), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    def test_avoiders_length_three(self):
        all3 = {p for p in itertools.permutations((1, 2, 3))}
        assert set(listed(ClassId.PERM_AVOID_A, 3)) == all3 - {(2, 3, 1)}
        assert set(listed(ClassId.PERM_AVOID_B, 3)) == all3 - {(1, 3, 2)}


class TestEnumerationOrder:
    def test_lexicographic(self):
        for cid in (ClassId.ASC, ClassId.T21, ClassId.INV, ClassId.PERM_ALL):
            out = listed(cid, 5)
            assert out == sorted(out)

    def test_prefix_filters(self):
        whole = listed(ClassId.ASC, 4)
        assert listed(ClassId.ASC, 4, prefix=(0, 1)) == [
            s for s in whole if s[:2] == (0, 1)]
        assert listed(ClassId.ASC, 4, prefix=(0, 1))[0] == (0, 1, 0, 0)

    def test_prefix_longer_than_length_yields_nothing(self):
        assert listed(ClassId.ASC, 2, prefix=(0, 0, 0)) == []

    def test_dead_prefix_yields_nothing(self):
        assert listed(ClassId.ASC, 3, prefix=(0, 5)) == []


def typed(stream):
    return [(type(x), tuple(x)) for x in stream]


def by_prefix(members, k):
    """{prefix of length k: the members that begin with it}, in order."""
    groups = {}
    for x in members:
        groups.setdefault(tuple(x[:k]), []).append(x)
    return groups


class TestMemoisedWalk:
    """The walk over the nodes of seqcore.graph, one node per reachable
    (state, last entry) key, must yield exactly the brute-force members,
    each of its class's type."""

    @pytest.mark.parametrize("cid", list(seqcore._RULES), ids=lambda c: c.name)
    def test_whole_streams(self, cid):
        top = 7 if cid is ClassId.PERM_ALL else 8
        for n in range(1, top + 1):
            assert typed(enumerate_class(cid, n)) == typed(brute_force(cid, n))

    @pytest.mark.parametrize("cid", list(seqcore._RULES), ids=lambda c: c.name)
    def test_every_prefix(self, cid):
        top = 7 if cid.is_permutation_class else 8
        for n in range(1, top + 1):
            whole = brute_force(cid, n)
            for k in range(1, 4):  # k = 0 is the whole stream, above
                want = by_prefix(whole, k)
                for prefix in itertools.product(range(n + 2), repeat=k):
                    assert typed(enumerate_class(cid, n, prefix=prefix)) == (
                        typed(want.get(prefix, []))), prefix

    @pytest.mark.parametrize("cid", list(seqcore._RULES), ids=lambda c: c.name)
    def test_interleaved_walks_share_nothing(self, cid):
        # a graph shared between walks would hand the second walk children
        # cached for another length: permutations range over 1..n
        a, b = ((2,), (3, 1)) if cid.is_permutation_class else ((0, 1), (0, 0))
        walks = [(6, ()), (5, ()), (6, a), (4, b)]
        streams = [enumerate_class(cid, n, prefix=p) for n, p in walks]
        got = [[] for _ in walks]
        for row in itertools.zip_longest(*streams):
            for out, x in zip(got, row):
                if x is not None:
                    out.append((type(x), tuple(x)))
        want = [typed(by_prefix(brute_force(cid, n), len(p)).get(p, []))
                for n, p in walks]
        assert all(want) and got == want


def reachable(cid, n):
    """[(m, the (state, prev) keys a member can reach at index m)], read off
    the step rule by brute force."""
    step, state = seqcore._RULES[cid]
    perm, keys, out = cid.is_permutation_class, {(state, 0)}, []
    for m in range(n):
        out.append((m, sorted(keys, key=repr)))
        keys = {(nxt, v) for state, prev in keys
                for v in seqcore.entry_range(perm, n, m)
                if (nxt := step(state, m, prev, v)) is not None}
    return out


class TestExtensionTable:
    """seqcore.extensions, the one table of the step rules: the counter
    reads it, and so does seqcore.graph, which the walk and the ranker
    read."""

    @pytest.mark.parametrize("cid", list(seqcore._RULES), ids=lambda c: c.name)
    def test_matches_the_filtered_step_rule(self, cid):
        step, _ = seqcore._RULES[cid]
        perm = cid.is_permutation_class
        for n in range(1, 7):
            for m, keys in reachable(cid, n):
                table = seqcore.extensions(step, perm, n, m)
                for state, prev in keys:
                    # entry_range counts up, so this is increasing v
                    want = tuple(
                        (v, nxt, None) for v in seqcore.entry_range(perm, n, m)
                        if (nxt := step(state, m, prev, v)) is not None)
                    assert table(state, prev) == want, (n, m, state, prev)
                    assert table(state, prev) is table(state, prev)

    @pytest.mark.parametrize("cid", [ClassId.T21, ClassId.PERM_AVOID_A],
                             ids=lambda c: c.name)
    def test_payload_runs_once_per_entry(self, cid):
        step, _ = seqcore._RULES[cid]
        perm, n = cid.is_permutation_class, 6
        for m, keys in reachable(cid, n):
            seen = []

            def payload(state, prev, v):
                seen.append((state, prev, v))
                return "extra", v

            table = seqcore.extensions(step, perm, n, m, payload)
            for _ in range(3):
                for key in keys:
                    assert all(extra == ("extra", v)
                               for v, _, extra in table(*key))
            want = [(state, prev, v) for state, prev in keys
                    for v, _, _ in seqcore.extensions(step, perm, n, m)(
                        state, prev)]
            assert sorted(seen, key=repr) == sorted(want, key=repr)

    @pytest.mark.parametrize("module, run", [
        (seqcore, lambda: list(enumerate_class(ClassId.T21, 5))),
        (counting, lambda: counting.count_table(ClassId.T21, 5, ("asc",))),
        # the ranker reads the table through seqcore.graph
        (seqcore, lambda: counting.ranker(ClassId.T21, 5)),
    ], ids=["enumerate_class", "count_table", "ranker"])
    def test_every_reader_reads_it(self, monkeypatch, module, run):
        read = []
        real = seqcore.extensions

        def spy(*args):
            read.append(args[3])  # the index m
            return real(*args)

        monkeypatch.setattr(module, "extensions", spy)
        run()
        assert read


class TestPrefixGraph:
    """graph(class_id, n, *prefix) runs the prefix through the step rule and
    builds the nodes after it only, so a deep prefix costs its completions,
    not the whole class."""

    @pytest.mark.parametrize(
        "cid", [c for c in seqcore._RULES if c is not ClassId.PERM_ALL],
        ids=lambda c: c.name)
    def test_no_table_below_the_prefix(self, monkeypatch, cid):
        n = 7
        member = listed(cid, n)[len(listed(cid, n)) // 3]
        refused = (2, 2) if cid.is_permutation_class else (0, 2)
        read, real = [], seqcore.extensions

        def spy(*args):
            read.append(args[3])  # the index m
            return real(*args)

        monkeypatch.setattr(seqcore, "extensions", spy)
        for k in range(n + 1):
            read.clear()
            got = listed(cid, n, prefix=member[:k])
            assert member in got
            assert sorted(set(read)) == list(range(k, n)), k
        read.clear()
        assert listed(cid, n, prefix=refused) == [] and read == []

    @pytest.mark.parametrize("cid", list(seqcore._RULES), ids=lambda c: c.name)
    def test_prefixed_stream_is_the_filtered_stream(self, cid):
        for n in range(1, 8):
            whole = listed(cid, n)
            by_prefix = {}
            for x in whole:
                for k in range(n + 1):
                    by_prefix.setdefault(x[:k], []).append(x)
            for prefix, want in by_prefix.items():
                assert listed(cid, n, prefix=prefix) == want, prefix

    def test_graph_of_a_prefix(self):
        root, size = seqcore.graph(ClassId.ASC, 4)
        assert size == 15
        node, size = seqcore.graph(ClassId.ASC, 4, 0, 1)
        assert (node, size) == (root[0][1][1][1], 10)
        assert seqcore.graph(ClassId.ASC, 4, 0, 1, 0, 2) == (None, 1)
        assert seqcore.graph(ClassId.ASC, 4, 0, 2) == (None, 0)
        assert seqcore.graph(ClassId.PERM_ALL, 3, 4) == (None, 0)


class TestMembership:
    def test_ascent_condition(self):
        assert is_member(ClassId.ASC, Seq((0, 1, 0, 2, 3, 2, 3, 1)))
        # entry 2 exceeds asc(prefix) + 1 = 1
        assert not is_member(ClassId.ASC, Seq((0, 2)))
        assert not is_member(ClassId.ASC, Seq((1,)))

    def test_inversion_condition(self):
        assert is_member(ClassId.INV, Seq((0, 1, 2, 0, 4, 2, 2, 7)))
        assert not is_member(ClassId.INV, Seq((0, 3)))

    def test_drop_by_one(self):
        assert is_member(ClassId.T21, Seq((0, 0, 2, 2, 0, 5, 5, 3)))
        assert not is_member(ClassId.T21, Seq((0, 1, 0)))

    def test_bivincular_patterns(self):
        assert not is_member(ClassId.PERM_AVOID_A, Perm((2, 3, 1)))
        assert not is_member(ClassId.PERM_AVOID_B, Perm((1, 3, 2)))
        assert is_member(ClassId.PERM_AVOID_A, Perm((6, 1, 8, 3, 2, 5, 4, 7)))

    def test_kind_mismatch_rejected(self):
        with pytest.raises(UsageError):
            is_member(ClassId.ASC, Perm((1, 2)))
        with pytest.raises(UsageError):
            is_member(ClassId.PERM_ALL, Seq((0, 0)))

    def test_empty_object_rejected(self):
        with pytest.raises(UsageError):
            is_member(ClassId.ASC, Seq(()))



def words(n):
    """Every word of length n over 0..n+1."""
    return map(Seq, itertools.product(range(n + 2), repeat=n))


def permutations(n):
    return map(Perm, itertools.permutations(range(1, n + 1)))


class TestMembershipAgainstTheReferences:
    """Membership by the step rules, through is_member and the one-line
    readings of seqcore, against the hand-written predicates of class_refs:
    the one check of the rules that does not read them."""

    @pytest.mark.parametrize(
        "cid", [cid for cid in ClassId if not cid.is_permutation_class],
        ids=lambda c: c.name)
    def test_sequence_classes(self, cid):
        objs = itertools.chain(*map(words, range(1, 6)),
                               enumerate_class(ClassId.INV, 8))
        for s in objs:
            assert is_member(cid, s) == ref_is_member(cid, s), s

    @pytest.mark.parametrize(
        "cid", [cid for cid in ClassId if cid.is_permutation_class],
        ids=lambda c: c.name)
    def test_permutation_classes(self, cid):
        for p in itertools.chain(*map(permutations, range(1, 9))):
            assert is_member(cid, p) == ref_is_member(cid, p), p

    def test_one_line_readings(self):
        for s in itertools.chain(*map(words, range(6))):
            assert seqcore.is_inversion(s) == is_inversion(s), s
        for p in itertools.chain(*map(permutations, range(8))):
            assert (seqcore.contains_bivincular_A(p)
                    == contains_bivincular_A(p)), p
            assert (seqcore.contains_bivincular_B(p)
                    == contains_bivincular_B(p)), p

class TestLimits:
    def test_default_ceiling_on_sequences(self):
        with pytest.raises(ResourceLimitError):
            next(enumerate_class(ClassId.ASC, 13))

    def test_default_ceiling_on_permutations(self):
        with pytest.raises(ResourceLimitError):
            next(enumerate_class(ClassId.PERM_ALL, 11))

    def test_inversion_sequences_take_the_permutation_ceiling(self):
        # there are n! of them, as many as permutations
        with pytest.raises(ResourceLimitError):
            next(enumerate_class(ClassId.INV, 11))
        assert next(enumerate_class(ClassId.INV, 11, limit=11)) == Seq((0,) * 11)

    def test_limit_overrides_ceiling(self):
        with pytest.raises(ResourceLimitError):
            next(enumerate_class(ClassId.ASC, 4, limit=3))
        assert len(listed(ClassId.ASC, 4, limit=4)) == 15

    @pytest.mark.parametrize("limit", [0, -5, True, 2.5])
    def test_bad_limit_is_a_usage_error(self, limit):
        # True would act as 1 and 2.5 as a ceiling between lengths
        with pytest.raises(UsageError, match="limit must be a positive"):
            enumerate_class(ClassId.ASC, 1, limit=limit)

    def test_bad_length(self):
        with pytest.raises(UsageError):
            next(enumerate_class(ClassId.ASC, 0))
        with pytest.raises(UsageError):
            next(enumerate_class(ClassId.ASC, "3"))

    def test_bad_prefix(self):
        with pytest.raises(UsageError):
            next(enumerate_class(ClassId.ASC, 3, prefix=(0, -1)))

    @pytest.mark.parametrize("cid", ["asc", None, 0])
    def test_class_must_be_a_class_id(self, cid):
        with pytest.raises(UsageError) as caught:
            enumerate_class(cid, 3)
        assert str(caught.value) == f"expected a ClassId, got {cid!r}"


class TestLaziness:
    """enumerate_class refuses at call time, before any work, and builds its
    graph at the first member, not before: the CLI makes every refusal
    before it writes a member."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls, real = [], seqcore.graph

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(seqcore, "graph", spy)
        return calls

    @pytest.mark.parametrize("args, kw, error", [
        (("asc", 3), {}, UsageError),
        ((ClassId.ASC, 0), {}, UsageError),
        ((ClassId.ASC, 13), {}, ResourceLimitError),
        ((ClassId.ASC, 3), {"limit": 0}, UsageError),
        ((ClassId.ASC, 4), {"limit": 3}, ResourceLimitError),
        ((ClassId.ASC, 3), {"prefix": (0, -1)}, UsageError),
    ], ids=["class", "size", "cap", "bad-limit", "limit", "prefix"])
    def test_refusals_come_at_call_time(self, built, args, kw, error):
        with pytest.raises(error):
            enumerate_class(*args, **kw)
        assert built == []

    @pytest.mark.parametrize(
        "cid", [c for c in seqcore._RULES if c is not ClassId.PERM_ALL],
        ids=lambda c: c.name)
    def test_graph_waits_for_the_first_member(self, built, cid):
        stream = enumerate_class(cid, 5)
        assert built == []
        first = next(stream)
        assert built == [(cid, 5)]
        assert first == listed(cid, 5)[0]


class TestSizeTable:
    """Every layer reads its cap from seqcore.CAPS at call time, so one
    lowered entry lowers the cap of its layer: a copy of a cap held
    anywhere else, even a name bound at import, keeps the old value."""

    @pytest.mark.parametrize("entry, run", [
        ("enumerate", lambda n: next(enumerate_class(ClassId.ASC, n))),
        ("enumerate n!", lambda n: next(enumerate_class(ClassId.PERM_ALL, n))),
        ("table", lambda n: harness.dist_table(ClassId.T21, n, ("rep",),
                                               use_cache=False)),
        ("table n!", lambda n: harness.dist_table(ClassId.INV, n, ("asc",),
                                                  use_cache=False)),
        ("series", genfun.fishburn_series),
        ("series", genfun.series_G)],
        ids=["enumerate", "enumerate-perm", "table", "table-inv",
             "fishburn_series", "series_G"])
    def test_a_lowered_entry_is_refused_past(self, monkeypatch, entry, run):
        monkeypatch.setitem(seqcore.CAPS, entry, 4)
        run(4)
        with pytest.raises(ResourceLimitError, match=r"(limit|cap of) 4\b"):
            run(5)


class TestTextForms:
    def test_sequence_round_trip(self):
        s = Seq.from_text("0,1,0,2,3,2,5,1")
        assert tuple(s) == (0, 1, 0, 2, 3, 2, 5, 1)
        assert s.to_text() == "0,1,0,2,3,2,5,1"
        assert Seq.from_text("") == Seq(())

    def test_sequence_rejects_garbage(self):
        for text in ("0,x", "0,,1", "0, -1"):
            with pytest.raises(UsageError):
                Seq.from_text(text)

    def test_permutation_digit_word(self):
        p = Perm.from_text("61832547")
        assert tuple(p) == (6, 1, 8, 3, 2, 5, 4, 7)
        assert p.to_text() == "61832547"

    def test_permutation_comma_form(self):
        p = Perm.from_text("10,1,2,3,4,5,6,7,8,9")
        assert len(p) == 10 and p[0] == 10
        # ten or more entries cannot be written as a digit word
        assert "," in p.to_text()

    def test_permutation_prefix_word(self):
        assert Perm.parse_word("3") == (3,)
        assert Perm.parse_word("31") == (3, 1)
        assert Perm.parse_word("10,2") == (10, 2)
        assert Perm.parse_word("33") == (3, 3)  # a word, not a permutation
        for text in ("0", "3x", "1,-2", "3,,1"):
            with pytest.raises(UsageError):
                Perm.parse_word(text)

    def test_permutation_rejects_garbage(self):
        for text in ("132x", "1,1,2", "0,1"):
            with pytest.raises(UsageError):
                Perm.from_text(text)
        assert Perm.from_text("") == Perm(())

    def test_constructors_validate(self):
        with pytest.raises(DomainError):
            Seq((0, -1))
        with pytest.raises(DomainError):
            Seq((0, True))
        with pytest.raises(DomainError):
            Perm((1, 3))
        with pytest.raises(DomainError):
            Perm((1, 1, 2))
        # Perm reads the rule of PERM_ALL; its former body is the reference
        for n in range(6):
            for word in itertools.product(range(n + 2), repeat=n):
                want = sorted(word) == list(range(1, n + 1))
                try:
                    assert Perm(word) == word and want, word
                except DomainError as exc:
                    assert not want, word
                    assert str(exc) == f"not a permutation of 1..{n}: {word!r}"

    @pytest.mark.parametrize("values", [(True,), (2.0, 1.0), (2, True),
                                        (1, "2"), ("a", 1)])
    def test_perm_refuses_entries_that_are_not_ints(self, values):
        # a bool passes the rule as the int it equals, and a float or a str
        # breaks the rule's range test or bit shifts: each is refused first
        with pytest.raises(DomainError) as caught:
            Perm(values)
        assert str(caught.value) == (
            f"not a permutation of 1..{len(values)}: {values!r}")


class TestPermTransform:
    """perm_transform, the complement of the inverse; tests/test_parallel_maps
    compares it with its reference."""

    def test_inverse_and_complement(self):
        p = Perm((6, 1, 8, 3, 2, 5, 4, 7))
        # inverse (2, 5, 4, 7, 6, 1, 8, 3), then its complement
        assert tuple(perm_transform(p)) == (7, 4, 5, 2, 3, 8, 1, 6)

    @given(st.integers(1, 7).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))))
    def test_involutions(self, vals):
        p = Perm(tuple(vals))
        # the inverse of a complement is the reverse of the inverse, so two
        # steps give the reverse-complement and four give p back
        twice = perm_transform(perm_transform(p))
        assert twice == Perm(len(p) + 1 - v for v in reversed(p))
        assert perm_transform(perm_transform(twice)) == p
