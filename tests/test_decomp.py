"""Subset classifiers and the length-reducing decomposition maps.

Worked values are pinned here; the acceptance suite replays the full
domain/codomain/injectivity ledger for every map at larger sizes.
"""

import ast
import hashlib
from pathlib import Path

import pytest

from fishburn.errors import DomainError, UsageError, invariant
from fishburn.seqcore import ClassId, Seq, enumerate_class
from fishburn import decomp, stats

from test_parallel_maps import MALFORMED, outcome


def ascent_members(n):
    return list(enumerate_class(ClassId.ASC, n))


def t21_members(n):
    return list(enumerate_class(ClassId.T21, n))


class TestClassify:
    def test_scheme_names(self):
        assert decomp.SUBSET_SCHEMES == (
            "ASC_S", "ASC_P", "T_J", "T_F", "ASC_R", "ASC_G")

    def test_four_way_split_at_small_lengths(self):
        # members with a non-maximal tail, classified by hand
        want = {
            (0, 0): "S1",
            (0, 0, 0): "S2", (0, 0, 1): "S4", (0, 1, 0): "S1", (0, 1, 1): "S1",
            (0, 1, 0, 1): "S3", (0, 1, 0, 2): "S4", (0, 1, 2, 0): "S1",
        }
        for vals, label in want.items():
            assert decomp.classify(Seq(vals), "ASC_S") == label

    def test_smallest_member_of_the_third_block(self):
        hits = [tuple(s)
                for n in range(2, 5) for s in ascent_members(n)
                if stats.scalar_stats(s)["max"] < n
                and decomp.classify(s, "ASC_S") == "S3"]
        assert hits[0] == (0, 1, 0, 1)

    def test_other_schemes_on_small_members(self):
        assert decomp.classify(Seq((0, 1, 0)), "ASC_P") == "P"
        assert decomp.classify(Seq((0, 1, 1)), "ASC_P") == "Pc"
        assert decomp.classify(Seq((0, 0, 2)), "T_F") == "F"
        assert decomp.classify(Seq((0, 0, 2)), "T_J") == "J1"
        assert decomp.classify(Seq((0, 1, 0)), "ASC_G") == "G"
        assert decomp.classify(Seq((0, 1, 0)), "ASC_R") == "R1"

    def test_every_scheme_partitions_its_domain(self):
        labels = {
            "ASC_P": {"P", "Pc"}, "T_F": {"F", "Fc"},
            "T_J": {"J1", "J2"}, "ASC_G": {"G", "Gc"}, "ASC_R": {"R1", "R2"},
        }
        for n in range(1, 7):
            for s in ascent_members(n):
                sc = stats.scalar_stats(s)
                assert decomp.classify(s, "ASC_P") in labels["ASC_P"]
                assert decomp.classify(s, "ASC_G") in labels["ASC_G"]
                if sc["zero"] < n:  # needs a nonzero entry
                    assert decomp.classify(s, "ASC_R") in labels["ASC_R"]
                if sc["max"] < n:  # needs a non-maximal tail
                    assert decomp.classify(s, "ASC_S") in {"S1", "S2", "S3", "S4"}
            for t in t21_members(n):
                assert decomp.classify(t, "T_F") in labels["T_F"]
                if stats.scalar_stats(t)["max"] < n:
                    assert decomp.classify(t, "T_J") in labels["T_J"]

    def test_errors(self):
        with pytest.raises(UsageError):
            decomp.classify(Seq((0, 1, 0)), "NOPE")
        with pytest.raises(DomainError):
            decomp.classify(Seq((0, 1)), "ASC_S")  # identity run has no tail

    def test_scheme_that_is_no_string(self):
        with pytest.raises(UsageError) as caught:
            decomp.classify(Seq((0, 1)), 3)
        assert str(caught.value) == (
            "unknown scheme 3; expected one of: "
            "ASC_S, ASC_P, T_J, T_F, ASC_R, ASC_G")


class TestWorkedValues:
    def test_maximal_dropping_map(self):
        assert decomp.phi_P(Seq((0, 1, 0))) == Seq((0, 0))
        assert decomp.phi_P_inv(Seq((0, 0))) == Seq((0, 1, 0))
        with pytest.raises(DomainError):
            decomp.phi_P(Seq((0, 1, 1)))

    def test_fourth_block_map(self):
        got = decomp.xi_S4(Seq((0, 0, 1)))
        assert (got.output, got.side_index) == (Seq((0, 1, 1)), 0)
        assert decomp.xi_S4_inv(Seq((0, 1, 1)), 0) == Seq((0, 0, 1))

    def test_second_block_reduction(self):
        got = decomp.s2_reduce(Seq((0, 1, 1, 0)))
        assert (got.output, got.side_index) == (Seq((0, 1, 0)), 1)
        assert decomp.s2_insert(Seq((0, 1, 0)), 1) == Seq((0, 1, 1, 0))
        flat = decomp.s2_reduce(Seq((0, 0, 0)))
        assert (flat.output, flat.side_index) == (Seq((0, 0)), 0)

    def test_third_block_reduction(self):
        got = decomp.s3_reduce(Seq((0, 1, 0, 1)))
        assert (got.output, got.side_index) == (Seq((0, 1, 1)), 0)
        assert decomp.s3_insert(Seq((0, 1, 1)), 0) == Seq((0, 1, 0, 1))

    def test_tail_entry_shift(self):
        assert decomp.ealm_shift(Seq((0, 1, 0)), "up") == Seq((0, 1, 1))
        assert decomp.ealm_shift(Seq((0, 1, 1)), "down") == Seq((0, 1, 0))
        with pytest.raises(UsageError):
            decomp.ealm_shift(Seq((0, 1, 0)), "sideways")
        # the entry tops out at max - 1; one more would make the identity run
        with pytest.raises(DomainError, match=r"^entry already at top of "
                                              r"range: \(0, 1, 2, 2\)$"):
            decomp.ealm_shift(Seq((0, 1, 2, 2)), "up")

    def test_paired_maximal_dropping_map(self):
        assert decomp.psi_F(Seq((0, 0, 2))) == Seq((0, 0))
        s = Seq((0, 0, 2, 3, 0, 3))
        assert decomp.psi_F(s) == Seq((0, 0, 2, 0, 2))
        assert decomp.psi_F_inv(decomp.psi_F(s)) == s

    def test_paired_maximal_shift(self):
        trace = []
        out = decomp.mpair_shift(Seq((0, 0, 2, 0)), "up", _trace=trace)
        assert out == Seq((0, 0, 2, 2))
        assert [lab for lab, _ in trace] == ["separated"]
        assert decomp.mpair_shift(Seq((0, 0, 2, 3)), "up") == Seq((0, 1, 1, 3))
        assert decomp.mpair_shift(Seq((0, 0, 2)), "up") == Seq((0, 1, 1))
        assert decomp.mpair_shift(Seq((0, 1, 1)), "down") == Seq((0, 0, 2))

    def test_maximal_detaching_chain(self):
        s = Seq((0, 0, 0, 3, 4, 5, 5, 7, 1, 5))
        trace = []
        out = decomp.vartheta(s, 1, _trace=trace)
        assert out == Seq((0, 0, 0, 3, 3, 4, 6, 7, 1, 4))
        assert trace == [
            ("M0", Seq((0, 0, 0, 3, 4, 4, 5, 7, 1, 5))),
            ("M1", Seq((0, 0, 0, 3, 3, 4, 6, 7, 1, 4))),
        ]
        assert decomp.vartheta(s, 2) == Seq((0, 0, 0, 3, 4, 4, 5, 7, 1, 5))
        assert decomp.vartheta(s, 0) == Seq((0, 0, 0, 3, 0, 4, 6, 7, 1, 4))
        back = decomp.vartheta_inv(out)
        assert (back.output, back.side_index) == (s, 1)

    def test_maximal_detaching_chain_through_every_step(self):
        s = Seq((0, 0, 2, 3, 4, 4))
        trace = []
        out = decomp.vartheta(s, 0, _trace=trace)
        assert out == Seq((0, 0, 2, 0, 3, 5))
        assert trace == [
            ("M0", Seq((0, 0, 2, 3, 3, 4))),
            ("M1", Seq((0, 0, 2, 2, 3, 5))),
            ("M2", Seq((0, 0, 2, 0, 3, 5))),
        ]
        trace = []
        back = decomp.vartheta_inv(out, _trace=trace)
        assert (back.output, back.side_index) == (s, 0)
        assert trace == [
            ("undo_M2", Seq((0, 0, 2, 2, 3, 5))),
            ("undo_M1", Seq((0, 0, 2, 3, 3, 4))),
            ("undo_M0", s),
        ]

    def test_zero_side_maps(self):
        assert decomp.phi_G(Seq((0, 1, 0))) == Seq((0, 1))
        assert decomp.phi_G_inv(Seq((0, 1))) == Seq((0, 1, 0))
        assert decomp.zpair_shift(Seq((0, 1, 0, 0)), "up") == Seq((0, 0, 1, 0))
        assert decomp.zpair_shift(Seq((0, 0, 1, 0)), "down") == Seq((0, 1, 0, 0))

    # the walks from the smallest member of each domain with paired ordinal 1
    @pytest.mark.parametrize("walk, s", [
        (decomp.vartheta, Seq((0, 1, 1))), (decomp.theta_R, Seq((0, 0, 1)))],
        ids=("vartheta", "theta_R"))
    @pytest.mark.parametrize("i", [0.5, True, False])
    def test_walks_refuse_a_target_ordinal_that_is_no_integer(self, walk, s,
                                                               i):
        with pytest.raises(DomainError) as caught:
            walk(s, i)
        assert str(caught.value) == (
            f"target ordinal must be an integer, got {i!r}")

    def test_zero_detaching_map(self):
        got = decomp.theta_R_inv(Seq((0, 1, 2, 0, 0, 1, 2, 4, 1, 2, 0, 2)))
        assert (got.output, got.side_index) == (
            Seq((0, 1, 2, 0, 0, 1, 3, 0, 1, 2, 0, 2)), 2)
        assert decomp.theta_R(got.output, got.side_index) == Seq(
            (0, 1, 2, 0, 0, 1, 2, 4, 1, 2, 0, 2))

    def test_zero_detaching_chain_through_every_step(self):
        s = Seq((0, 0, 1, 0, 0, 1))
        trace = []
        out = decomp.theta_R(s, 0, _trace=trace)
        assert out == Seq((0, 1, 0, 0, 2, 1))
        assert trace == [
            ("Z0", Seq((0, 0, 1, 0, 1, 1))),
            ("Z2", Seq((0, 0, 1, 0, 2, 1))),
            ("Z1", Seq((0, 1, 0, 0, 2, 1))),
        ]
        trace = []
        back = decomp.theta_R_inv(out, _trace=trace)
        assert (back.output, back.side_index) == (s, 0)
        assert trace == [
            ("undo_Z1", Seq((0, 0, 1, 0, 2, 1))),
            ("undo_Z2", Seq((0, 0, 1, 0, 1, 1))),
            ("undo_Z0", s),
        ]


class TestRoundTrips:
    """Each reducing map must invert cleanly over its whole small domain."""

    def test_first_block_pair(self):
        for n in range(2, 6):
            for s in ascent_members(n):
                if decomp.classify(s, "ASC_P") == "P":
                    assert decomp.phi_P_inv(decomp.phi_P(s)) == s

    def test_block_reductions(self):
        for n in range(2, 6):
            for s in ascent_members(n):
                if stats.scalar_stats(s)["max"] == n:
                    continue
                label = decomp.classify(s, "ASC_S")
                if label == "S2":
                    r = decomp.s2_reduce(s)
                    assert decomp.s2_insert(r.output, r.side_index) == s
                elif label == "S3":
                    r = decomp.s3_reduce(s)
                    assert decomp.s3_insert(r.output, r.side_index) == s
                elif label == "S4":
                    r = decomp.xi_S4(s)
                    assert decomp.xi_S4_inv(r.output, r.side_index) == s

    def test_shifts_invert(self):
        for n in range(2, 7):
            for s in ascent_members(n):
                st = stats.scalar_stats(s)
                if st["max"] < n and decomp.classify(s, "ASC_S") != "S4":
                    i = stats.ealm(s)
                    if i < st["max"] - 1:
                        up = decomp.ealm_shift(s, "up")
                        assert decomp.ealm_shift(up, "down") == s
                if (st["zero"] < n and decomp.classify(s, "ASC_R") == "R1"
                        and stats.zpair(s) < st["zero"] - 1):
                    up = decomp.zpair_shift(s, "up")
                    assert decomp.zpair_shift(up, "down") == s
            for t in t21_members(n):
                st = stats.scalar_stats(t)
                if (st["max"] < n and decomp.classify(t, "T_J") == "J1"
                        and stats.mpair(t) < st["max"] - 1):
                    up = decomp.mpair_shift(t, "up")
                    assert decomp.mpair_shift(up, "down") == t

    def test_detaching_maps_invert(self):
        for n in range(2, 7):
            for t in t21_members(n):
                if decomp.classify(t, "T_F") == "Fc":
                    for i in range(stats.mpair(t)):
                        r = decomp.vartheta_inv(decomp.vartheta(t, i))
                        assert (r.output, r.side_index) == (t, i)
            for s in ascent_members(n):
                if decomp.classify(s, "ASC_G") == "Gc":
                    for i in range(stats.zpair(s)):
                        r = decomp.theta_R_inv(decomp.theta_R(s, i))
                        assert (r.output, r.side_index) == (s, i)

    def test_paired_maximal_map_inverts(self):
        for n in range(2, 7):
            for t in t21_members(n):
                if decomp.classify(t, "T_F") == "F":
                    assert decomp.psi_F_inv(decomp.psi_F(t)) == t


# the sha256 of the outcome list below, recorded before the guard passes of
# stats took the refusal text of their caller
MAPS_DIGEST = "097a0ca42ddf560e245a41b0ae5955544aa7fff5fc02f58457a488f30deb0938"


def map_calls():
    """Every forward and inverse of decomp.MAPS, called as the CLI calls
    them, on every INV member of length 1..6 and on malformed input: a
    shift takes up and down, a reduce inverse or a walk forward takes the
    side index -1..3."""
    inputs = [s for n in range(1, 7) for s in enumerate_class(ClassId.INV, n)]
    inputs += [Seq(values) for values in MALFORMED]
    for shape, forward, inverse in decomp.MAPS.values():
        for s in inputs:
            if shape == "shift":
                for direction in ("up", "down"):
                    yield forward, s, direction
                continue
            for fn in (forward, inverse):
                if shape != "drop" and (fn is inverse) == (shape == "reduce"):
                    for i in range(-1, 4):
                        yield fn, s, i
                else:
                    yield fn, s


def test_every_map_outcome_matches_its_digest():
    """Each value and each refusal, type and text, of every map is pinned."""
    got = [outcome(*call) for call in map_calls()]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == MAPS_DIGEST


# guarded map -> (its class, the scheme and the labels of its domain)
GUARDED = {"phi_P": (ClassId.ASC, "ASC_P", ("P",)),
           "xi_S4": (ClassId.ASC, "ASC_S", ("S4",)),
           "s2_reduce": (ClassId.ASC, "ASC_S", ("S2",)),
           "s3_reduce": (ClassId.ASC, "ASC_S", ("S3",)),
           "ealm_shift": (ClassId.ASC, "ASC_S", ("S1", "S2", "S3")),
           "psi_F": (ClassId.T21, "T_F", ("F",)),
           "phi_G": (ClassId.ASC, "ASC_G", ("G",))}


# the step surgeries of the walks, the rewinds and mpair_shift
STEPS = ("_M0", "_M1", "_M2", "_undo_M0", "_undo_M1", "_undo_M2",
         "_Z0", "_Z1", "_Z2", "_undo_Z0", "_undo_Z1", "_undo_Z2")


def counted_calls(monkeypatch, names):
    """The arguments of every call of the named functions of stats, through
    stats or decomp."""
    calls = []
    for name in names:
        def counted(*args, _real=getattr(stats, name)):
            calls.append(args)
            return _real(*args)
        for module in (stats, decomp):
            monkeypatch.setattr(module, name, counted)
    return calls


class TestOnePass:
    """Each guarded map and its inverse test membership and read their
    anchors off one validating pass of stats, and make no second one.  The
    walks make one read per step, their guard's pass serving the first."""

    @pytest.fixture
    def passes(self, monkeypatch):
        return counted_calls(monkeypatch, ("_asc_pass", "_t21_pass"))

    @pytest.fixture
    def scans(self, monkeypatch):
        return counted_calls(monkeypatch,
                             ("maximal_positions", "zero_positions"))

    @staticmethod
    def block(s, scheme):
        try:
            return decomp.classify(s, scheme)
        except DomainError:  # the identity run has no ASC_S block
            return None

    @pytest.mark.parametrize("name", list(GUARDED))
    def test_one_pass_per_call(self, name, passes):
        cid, scheme, labels = GUARDED[name]
        shape, forward, inverse = decomp.MAPS[name]

        def once(f, *args):
            passes.clear()
            try:
                return f(*args)
            finally:
                assert len(passes) == 1, (f.__name__, args, len(passes))

        runs = 0
        for n in range(2, 7):  # a drop from n = 1 leaves no sequence
            for s in enumerate_class(cid, n):
                if self.block(s, scheme) not in labels:
                    continue
                if shape == "drop":
                    assert once(inverse, once(forward, s)) == s
                elif shape == "reduce":
                    r = once(forward, s)
                    assert once(inverse, r.output, r.side_index) == s
                else:
                    for there, back in (("up", "down"), ("down", "up")):
                        try:
                            t = once(forward, s, there)
                        except DomainError:  # already at the end of the range
                            continue
                        assert once(inverse, t, back) == s
                runs += 1
        assert runs

    @pytest.mark.parametrize("walk, rewind, cid, pair", [
        (decomp.vartheta, decomp.vartheta_inv, ClassId.T21, stats.mpair),
        (decomp.theta_R, decomp.theta_R_inv, ClassId.ASC, stats.zpair)],
        ids=("vartheta", "theta_R"))
    def test_one_read_per_walk_step(self, walk, rewind, cid, pair, passes,
                                    scans, monkeypatch):
        reads = []  # the passes and scans made inside each step surgery
        for name in STEPS:
            def step(*args, _real=getattr(decomp, name)):
                before = len(passes) + len(scans)
                try:
                    return _real(*args)
                finally:
                    reads.append(len(passes) + len(scans) - before)
            monkeypatch.setattr(decomp, name, step)

        def run(f, *args):
            passes.clear()
            scans.clear()
            trace = []
            try:
                f(*args, _trace=trace)
            except DomainError:  # refused: outside the domain or the range
                pass
            return len(trace)

        for n in range(1, 7):
            for s in enumerate_class(cid, n):
                for i in range(-1, pair(s) + 1):
                    steps = run(walk, s, i)
                    assert (len(passes), len(scans)) == (1, max(steps - 1, 0))
                steps = run(rewind, s)
                assert (len(passes), len(scans)) == (max(steps, 1), 0)
                if cid is ClassId.T21:
                    for direction in ("up", "down"):
                        run(decomp.mpair_shift, s, direction)
                        assert (len(passes), len(scans)) == (1, 0)
        assert reads and not any(reads)


class TestInvariantGuards:
    def test_package_has_no_assert_statements(self):
        # python -O strips assert statements; internal invariants go through
        # errors.invariant, which stays active
        root = Path(decomp.__file__).parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(root.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_invariant_raises_assertion_error(self):
        invariant(True, "never raised")
        with pytest.raises(AssertionError,
                           match="^summand order bound violated$"):
            invariant(False, "summand order bound violated")
