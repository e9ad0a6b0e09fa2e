"""Scalar, set-valued and marker statistics.

The worked values here were computed by hand from the definitions and are
frozen; the property tests then extend them across whole classes.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fishburn.errors import DomainError
from fishburn.seqcore import ClassId, Perm, Seq, enumerate_class, is_inversion
from fishburn import harness, stats


def inversion_sequences(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[st.integers(0, i - 1) for i in range(1, n + 1)]))


class TestScalars:
    def test_worked_example(self):
        got = stats.scalar_stats(Seq((0, 1, 2, 0, 4, 2, 2, 7)))
        assert tuple(got[k] for k in stats.SEQ_PROFILE) == (4, 3, 2, 5, 3)
        assert got["nasc"] == 3

    def test_singleton(self):
        got = stats.scalar_stats(Seq((0,)))
        assert tuple(got[k] for k in stats.SEQ_SCALARS) == (0, 0, 1, 1, 1, 0)

    def test_rejects_non_inversion_sequence(self):
        with pytest.raises(DomainError):
            stats.scalar_stats(Seq((1, 0)))
        with pytest.raises(DomainError):
            stats.scalar_stats(Seq((0, 3)))


class TestSetValued:
    def test_worked_example(self):
        got = stats.set_stats(Seq((0, 1, 0, 2, 3, 2, 5, 1, 7)))
        assert got["ASC"] == (1, 3, 4, 6, 8)
        assert got["DIST"] == (5, 6, 7, 8, 9)
        assert got["ZERO"] == (1, 3)
        assert got["MAX"] == (1, 2)
        assert got["RMIN"] == (3, 8, 9)
        assert got["NASC"] == (2, 5, 7)

    def test_code_of_worked_permutation(self):
        got = stats.set_stats(Seq((0, 1, 0, 2, 3, 2, 5, 1)))
        assert got["ASC"] == (1, 3, 4, 6)
        assert got["DIST"] == (5, 6, 7, 8)
        assert got["ZERO"] == (1, 3)
        assert got["MAX"] == (1, 2)
        assert got["RMIN"] == (3, 8)

    @given(inversion_sequences())
    def test_set_sizes_match_scalars(self, vals):
        s = Seq(vals)
        sc = stats.scalar_stats(s)
        sv = stats.set_stats(s)
        assert len(sv["ASC"]) == sc["asc"]
        assert len(sv["ZERO"]) == sc["zero"]
        assert len(sv["MAX"]) == sc["max"]
        assert len(sv["RMIN"]) == sc["rmin"]
        assert len(sv["NASC"]) == sc["nasc"]
        # zero is always among the values, so DIST omits exactly one class
        assert len(sv["DIST"]) == len(s) - sc["rep"] - 1

    @given(inversion_sequences())
    def test_ascents_and_non_ascents_partition(self, vals):
        sc = stats.scalar_stats(Seq(vals))
        assert sc["asc"] + sc["nasc"] == len(vals) - 1


class TestPermStats:
    def test_worked_example(self):
        got = stats.perm_stats(Perm((6, 1, 8, 3, 2, 5, 4, 7)))
        assert got["DES"] == (1, 3, 4, 6)
        assert got["IDES"] == (5, 6, 7, 8)
        assert got["LMAX"] == (1, 3)
        assert got["LMIN"] == (1, 2)
        assert got["RMAX"] == (3, 8)
        assert (got["des"], got["ides"], got["iasc"]) == (4, 4, 3)

    def test_identity(self):
        got = stats.perm_stats(Perm((1, 2, 3, 4)))
        assert got["des"] == 0 and got["ides"] == 0 and got["iasc"] == 3
        assert got["LMAX"] == (1, 2, 3, 4) and got["LMIN"] == (1,)

    def test_inverse_descent_count_exhaustively(self):
        # ides must count the descents of the actual inverse; the set form
        # records positions in the permutation itself, not in its inverse
        for n in range(1, 6):
            for p in enumerate_class(ClassId.PERM_ALL, n):
                inv = [0] * n
                for i, v in enumerate(p):
                    inv[v - 1] = i + 1
                want = sum(1 for i in range(1, n) if inv[i - 1] > inv[i])
                got = stats.perm_stats(p)
                assert got["ides"] == want
                assert len(got["IDES"]) == want
                assert got["iasc"] == n - 1 - want


class TestMarkers:
    def test_ealm(self):
        assert stats.ealm(Seq((0, 1, 2, 3, 2, 4))) == 2
        assert stats.ealm(Seq((0, 1, 2))) == 0  # identity run
        assert stats.ealm(Seq((0, 0))) == 0

    def test_mpair(self):
        assert stats.mpair(Seq((0, 0, 2, 2, 0, 5, 5, 3))) == 2
        assert stats.mpair(Seq((0, 0, 2))) == 0
        assert stats.mpair(Seq((0, 1, 2))) == 0  # identity run

    def test_zpair(self):
        assert stats.zpair(Seq((0, 0, 1, 1, 2, 0, 1, 0))) == 2
        assert stats.zpair(Seq((0, 0, 0))) == 0  # no ones at all

    def test_position_markers(self):
        assert stats.mpos(Seq((0, 0, 2, 2, 0, 2, 5))) == 2
        assert stats.mpos(Seq((0, 0, 2, 2, 0, 2, 4))) == 0
        assert stats.zpos(Seq((0, 1, 2, 0, 1, 3, 2, 1, 0))) == 2
        assert stats.zpos(Seq((0, 1, 2, 0, 1, 3, 2, 0))) == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            stats.ealm(Seq((0, 2)))
        with pytest.raises(DomainError):
            stats.zpair(Seq((0, 2)))
        with pytest.raises(DomainError):
            stats.mpair(Seq((0, 1, 0)))
        # not an inversion sequence, so is_t21 refuses it first
        with pytest.raises(DomainError, match="drop-by-one-avoiding"):
            stats.mpair(Seq((0, 2)))

    def test_markers_total_on_their_classes(self):
        for n in range(1, 7):
            for s in enumerate_class(ClassId.ASC, n):
                assert stats.ealm(s) >= 0
                assert stats.zpair(s) >= 0
                assert stats.zpos(s) >= 0
            for t in enumerate_class(ClassId.T21, n):
                assert stats.mpair(t) >= 0
                assert stats.mpos(t) >= 0


# --- the kernels against plain references ------------------------------------
#
# scalar_stats, set_stats and perm_stats read the fused kernels, so none can
# be their oracle.  These references compute every statistic straight from
# its definition, one position at a time.

def ascent_positions(s):
    return tuple(i for i in range(1, len(s)) if s[i - 1] < s[i])


def ref_scalar_stats(s):
    if not is_inversion(s):
        raise DomainError(f"not an inversion sequence: {tuple(s)!r}")
    n = len(s)
    asc = len(ascent_positions(s))
    rmin = 0
    low = None
    for v in reversed(s):  # strict minima scanned from the right
        if low is None or v < low:
            rmin += 1
            low = v
    return dict(
        asc=asc, rep=n - len(set(s)), zero=sum(1 for v in s if v == 0),
        max=len(stats.maximal_positions(s)), rmin=rmin, nasc=n - 1 - asc)


def ref_perm_stats(p):
    n = len(p)
    pos = [0] * (n + 2)
    for i, v in enumerate(p):
        pos[v] = i + 1
    des = tuple([i for i in range(1, n) if p[i - 1] > p[i]])
    ides = tuple([i for i in range(2, n + 1) if p[i - 1] < n and pos[p[i - 1] + 1] < i])
    lmax = tuple([i for i in range(1, n + 1) if p[i - 1] > max(p[:i - 1], default=0)])
    lmin = tuple([i for i in range(1, n + 1) if p[i - 1] < min(p[:i - 1], default=n + 1)])
    rmax = tuple([i for i in range(1, n + 1) if p[i - 1] > max(p[i:], default=0)])
    return dict(DES=des, IDES=ides, LMAX=lmax, LMIN=lmin, RMAX=rmax,
                des=len(des), ides=len(ides), iasc=n - 1 - len(ides))


# The former body of set_stats: DIST by a search of the suffix.

def ref_set_stats(s):
    if not is_inversion(s):
        raise DomainError(f"not an inversion sequence: {tuple(s)!r}")
    n = len(s)
    dist = tuple(i for i in range(2, n + 1)
                 if s[i - 1] != 0 and s[i - 1] not in s[i:])
    rmin = []
    low = None
    for i in range(n, 0, -1):
        if low is None or s[i - 1] < low:
            rmin.append(i)
            low = s[i - 1]
    nasc = tuple(i for i in range(1, n) if s[i - 1] >= s[i])
    return dict(ASC=ascent_positions(s), DIST=dist,
                ZERO=stats.zero_positions(s), MAX=stats.maximal_positions(s),
                RMIN=tuple(reversed(rmin)), NASC=nasc)


class TestAgainstReferences:
    def test_scalar_stats_on_every_inversion_sequence(self):
        for n in range(1, 8):
            for s in enumerate_class(ClassId.INV, n):
                assert stats.scalar_stats(s) == ref_scalar_stats(s)

    def test_scalar_stats_validates_first(self):
        # every word over 0..n of length n: a non-inversion one must raise
        for n in range(1, 5):
            for vals in itertools.product(range(n + 1), repeat=n):
                s = Seq(vals)
                if is_inversion(s):
                    assert stats.scalar_stats(s) == ref_scalar_stats(s)
                else:
                    with pytest.raises(DomainError):
                        stats.scalar_stats(s)

    def test_perm_stats_on_every_permutation(self):
        for n in range(1, 9):
            for p in enumerate_class(ClassId.PERM_ALL, n):
                want = ref_perm_stats(p)
                assert stats.perm_stats(p) == want
                assert stats.perm_sets(p) == tuple(
                    want[name] for name in stats.PERM_SETS)

    def test_set_kernel_on_every_inversion_sequence(self):
        for n in range(1, 8):
            for s in enumerate_class(ClassId.INV, n):
                want = ref_set_stats(s)
                assert stats.set_stats(s) == want
                assert stats.seq_sets(s) == tuple(
                    want[name] for name in stats.SEQ_SETS)

    def test_set_stats_validates_first(self):
        for s in ((1,), (0, 2), (0, 1, 3), (1, 0)):
            with pytest.raises(DomainError):
                stats.set_stats(Seq(s))


KERNEL_MAX_N = {ClassId.ASC: 8, ClassId.T21: 8, ClassId.B: 8, ClassId.C: 8,
                ClassId.INV: 7}


def reference_values(class_id, names, obj):
    """The named statistics of obj, from the references above and the
    validating markers of stats."""
    if class_id.is_permutation_class:
        ps = ref_perm_stats(obj)
        row = {"des": ps["des"], "ides": ps["ides"], "iasc": ps["iasc"],
               "lmax": len(ps["LMAX"]), "lmin": len(ps["LMIN"]),
               "rmax": len(ps["RMAX"])}
    else:
        row = ref_scalar_stats(obj)
    return tuple(row[name] if name in row else getattr(stats, name)(obj)
                 for name in names)


def named_tables():
    """Every (class, statistics) pair the checks of harness._CHECKS read."""
    # gf_G and gf_zeromax build their tables in their bodies
    pairs = {(ClassId.ASC, ("rep", "max", "asc", "zero")),
             (ClassId.ASC, ("zero", "max"))}
    for fn, _ in harness._CHECKS.values():
        kind = getattr(fn, "func", None)
        if kind is harness._agree:
            pairs.update(fn.args[0])
        elif kind is harness._pointwise:
            source, _, target, want, got = fn.args[:5]
            # the set-valued names of psi/phi (upper case) have no tables
            pairs.update(pair for pair in ((source, want), (target, got))
                         if not pair[1][0].isupper())
    return sorted(pairs, key=repr)


def table_reads():
    """Every (class, statistics) pair the checks of harness._CHECKS read
    through dist_table: the tables of _agree, and the two that gf_G and
    gf_zeromax build in their bodies."""
    pairs = {(ClassId.ASC, ("rep", "max", "asc", "zero")),
             (ClassId.ASC, ("zero", "max"))}
    for fn, _ in harness._CHECKS.values():
        if getattr(fn, "func", None) is harness._agree:
            pairs.update(fn.args[0])
    return pairs


def test_each_core_is_what_the_table_checks_read():
    """A class's core is the statistics of its marker-free table reads,
    each derived name (nasc, iasc) taken at its base; a class that no
    check reads keeps the core of its kind, that of ASC or PERM_ALL."""
    read = {}
    for cid, names in table_reads():
        if not any(name in stats.MARKERS for name in names):
            read.setdefault(cid, set()).update(
                stats.DERIVED.get(name, name) for name in names)
    assert set(read) == {ClassId.ASC, ClassId.T21, ClassId.INV,
                         ClassId.PERM_ALL}
    assert set(harness._CORES) == set(ClassId)
    for cid, core in harness._CORES.items():
        kind = ClassId.PERM_ALL if cid.is_permutation_class else ClassId.ASC
        assert len(set(core)) == len(core), cid
        assert set(core) == read.get(cid, read[kind]), cid


class TestFusedKernels:
    @pytest.mark.parametrize("class_id", KERNEL_MAX_N, ids=lambda c: c.name)
    def test_seq_profile_matches_scalar_stats(self, class_id):
        for n in range(1, KERNEL_MAX_N[class_id] + 1):
            for s in enumerate_class(class_id, n):
                assert stats.seq_profile(s) == reference_values(
                    class_id, stats.SEQ_PROFILE, s)

    def test_perm_profile_matches_perm_stats(self):
        for n in range(1, 8):
            for p in enumerate_class(ClassId.PERM_ALL, n):
                assert stats.perm_profile(p) == reference_values(
                    ClassId.PERM_ALL, stats.PERM_PROFILE, p)

    def test_every_checked_table_is_named(self):
        # the walk over _CHECKS must not silently find fewer tables
        assert len(named_tables()) == 17

    @pytest.mark.parametrize(
        "class_id, names", named_tables(),
        ids=lambda v: v.name if isinstance(v, ClassId) else ",".join(v))
    def test_dist_table_matches_the_reference(self, class_id, names):
        for n in range(1, 8):
            want = Counter(reference_values(class_id, names, obj)
                           for obj in enumerate_class(class_id, n))
            got = harness.dist_table(class_id, n, names, use_cache=False)
            assert got.stats == names
            assert got.counts == want
