"""Distribution tables, the disk cache, and the named check suite."""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

from fishburn.errors import DomainError, ResourceLimitError, UsageError
from fishburn.seqcore import ClassId, Seq
from fishburn import (bijections, counting, decomp, genfun, harness, seqcore,
                      stats)


class TestDistTable:
    def test_pair_table_small(self):
        t = harness.dist_table(ClassId.ASC, 3, ("rep", "max"))
        assert t.counts == {(2, 1): 1, (1, 1): 1, (1, 2): 2, (0, 3): 1}
        assert t.total() == 5
        # the drop-avoiding class carries the same joint distribution
        u = harness.dist_table(ClassId.T21, 3, ("rep", "max"))
        assert u.counts == t.counts

    def test_all_scalars_at_length_one(self):
        t = harness.dist_table(
            ClassId.ASC, 1, ("asc", "rep", "zero", "max", "rmin", "nasc"))
        assert t.counts == {(0, 0, 1, 1, 1, 0): 1}

    def test_permutation_statistics(self):
        t = harness.dist_table(ClassId.PERM_ALL, 3, ("des",))
        assert t.counts == {(0,): 1, (1,): 4, (2,): 1}

    def test_marker_statistics_live_on_one_class_each(self):
        ok = harness.dist_table(ClassId.ASC, 3, ("ealm",))
        assert ok.total() == 5
        with pytest.raises(UsageError):
            harness.dist_table(ClassId.T21, 3, ("ealm",))
        with pytest.raises(UsageError):
            harness.dist_table(ClassId.ASC, 3, ("mpair",))

    def test_unknown_statistic(self):
        with pytest.raises(UsageError):
            harness.dist_table(ClassId.ASC, 3, ("bogus",))
        with pytest.raises(UsageError):
            harness.dist_table(ClassId.ASC, 3, ("des",))

    def test_length_caps(self):
        with pytest.raises(ResourceLimitError):
            harness.dist_table(ClassId.ASC, 13, ("asc",))
        # factorial-sized classes stop three lengths earlier
        with pytest.raises(ResourceLimitError):
            harness.dist_table(ClassId.INV, 10, ("asc",))
        with pytest.raises(ResourceLimitError):
            harness.dist_table(ClassId.PERM_ALL, 10, ("des",))
        with pytest.raises(UsageError):
            harness.dist_table(ClassId.ASC, 0, ("asc",))


class TestCache:
    def table_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        t = harness.dist_table(ClassId.ASC, 4, ("rep", "max"))
        path = harness._cache_path(ClassId.ASC, 4, ("rep", "max"))
        assert path.exists()
        return t, path

    def test_round_trip(self, tmp_path, monkeypatch):
        t, path = self.table_path(tmp_path, monkeypatch)
        again = harness.dist_table(ClassId.ASC, 4, ("rep", "max"))
        assert again.counts == t.counts

    @pytest.mark.parametrize("rows", [0, 1, 127, 128, 129, 300])
    def test_file_text_is_the_json_dump_text(self, rows, tmp_path):
        # the stored text of a table of any size, the empty one too, is
        # the json.dumps text of its payload, rows in key order
        counts = {(i, i % 7): 31 * i for i in reversed(range(rows))}
        path = tmp_path / "table.json"
        harness._store_table(
            path, genfun.DistTable(ClassId.ASC, 9, ("rep", "max"), counts))
        assert path.read_text() == json.dumps({
            "class": "ASC", "n": 9, "stats": ["rep", "max"],
            "version": harness._code_version(),
            "counts": [[[i, i % 7], 31 * i] for i in range(rows)]})

    def test_corrupt_file_is_recomputed(self, tmp_path, monkeypatch):
        t, path = self.table_path(tmp_path, monkeypatch)
        path.write_text("{ not json")
        again = harness.dist_table(ClassId.ASC, 4, ("rep", "max"))
        assert again.counts == t.counts
        # and the recompute repaired the file on disk
        assert json.loads(path.read_text())["n"] == 4

    def test_stale_version_is_recomputed(self, tmp_path, monkeypatch):
        t, path = self.table_path(tmp_path, monkeypatch)
        payload = json.loads(path.read_text())
        payload["version"] = "0" * 12
        payload["counts"] = [[[9, 9], 1]]
        path.write_text(json.dumps(payload))
        again = harness.dist_table(ClassId.ASC, 4, ("rep", "max"))
        assert again.counts == t.counts

    def test_no_cache_flag_skips_the_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        harness.dist_table(ClassId.ASC, 4, ("rep", "max"), use_cache=False)
        assert list(tmp_path.iterdir()) == []

    def test_profile_file_serves_every_scalar_table(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        runs = []
        real = counting.count_table

        def counted(class_id, n, names):
            runs.append((class_id, n, names))
            return real(class_id, n, names)

        monkeypatch.setattr(counting, "count_table", counted)
        for names in (("rep", "max"), ("asc", "zero"),
                      ("zero", "max", "nasc")):
            harness.dist_table(ClassId.ASC, 5, names)
        core = harness._cache_path(ClassId.ASC, 5, ("rep", "max"))
        assert sorted(tmp_path.iterdir()) == [core]
        assert core.name.startswith("ASC_n5_asc-rep-zero-max_")
        assert runs == [(ClassId.ASC, 5, ("asc", "rep", "zero", "max"))]
        # a marker table is a table of its own
        harness.dist_table(ClassId.ASC, 5, ("rep", "max", "ealm"))
        marked = harness._cache_path(ClassId.ASC, 5, ("rep", "max", "ealm"))
        assert sorted(tmp_path.iterdir()) == sorted([core, marked])
        # counted over ASC, the home class of ealm
        assert runs[1:] == [(ClassId.ASC, 5, ("rep", "max", "ealm"))]
        # while mpair has no tracker, so its table is enumerated
        harness.dist_table(ClassId.T21, 5, ("rep", "max", "mpair"))
        assert len(runs) == 2

    def test_names_off_the_core_get_files_of_their_own(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        runs = []
        real = counting.count_table

        def counted(class_id, n, names):
            runs.append((class_id, names))
            return real(class_id, n, names)

        monkeypatch.setattr(counting, "count_table", counted)
        requests = [(ClassId.ASC, ("rep", "max")), (ClassId.ASC, ("rmin",)),
                    (ClassId.ASC, ("asc", "rmin")),
                    (ClassId.PERM_ALL, ("des",)),
                    (ClassId.PERM_ALL, ("iasc", "des")),
                    (ClassId.PERM_ALL, ("lmax",))]
        for cid, names in requests:
            harness.dist_table(cid, 5, names)
        assert sorted(path.name.rsplit("_", 1)[0]
                      for path in tmp_path.iterdir()) == [
            "ASC_n5_asc-rep-zero-max", "ASC_n5_asc-rmin", "ASC_n5_rmin",
            "PERM_ALL_n5_des-ides", "PERM_ALL_n5_lmax"]
        # the rmin tables and the permutation core are counted, the lmax
        # table is enumerated
        assert runs == [(ClassId.ASC, ("asc", "rep", "zero", "max")),
                        (ClassId.ASC, ("rmin",)),
                        (ClassId.ASC, ("asc", "rmin")),
                        (ClassId.PERM_ALL, ("des", "ides"))]

    def test_t21_and_inv_cores_are_the_pairs_their_checks_read(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        runs = []
        real = counting.count_table

        def counted(class_id, n, names):
            runs.append((class_id, names))
            return real(class_id, n, names)

        monkeypatch.setattr(counting, "count_table", counted)
        requests = [(ClassId.T21, ("max", "rep")), (ClassId.T21, ("rep",)),
                    (ClassId.INV, ("rep", "asc")), (ClassId.INV, ("nasc",)),
                    (ClassId.T21, ("asc", "zero")),
                    (ClassId.T21, ("asc", "zero"))]
        for cid, names in requests:
            harness.dist_table(cid, 5, names)
        assert sorted(path.name.rsplit("_", 1)[0]
                      for path in tmp_path.iterdir()) == [
            "INV_n5_asc-rep", "T21_n5_asc-zero", "T21_n5_rep-max"]
        # (asc, zero) is off the T21 core: counted once into its own file,
        # then served from it
        assert runs == [(ClassId.T21, ("rep", "max")),
                        (ClassId.INV, ("asc", "rep")),
                        (ClassId.T21, ("asc", "zero"))]
        got = harness.dist_table(ClassId.T21, 5, ("asc", "zero"))
        assert got.counts == harness._compute_table(
            ClassId.T21, 5, ("asc", "zero")).counts

    def test_code_version_covers_this_module(self, tmp_path, monkeypatch):
        before = harness._code_version()
        edited = tmp_path / "harness.py"
        edited.write_bytes(Path(harness.__file__).read_bytes() + b"\n")
        monkeypatch.setattr(harness, "__file__", str(edited))
        assert harness._code_version() != before

    def test_code_version_covers_the_counter(self, tmp_path, monkeypatch):
        before = harness._code_version()
        edited = tmp_path / "counting.py"
        edited.write_bytes(Path(counting.__file__).read_bytes() + b"\n")
        monkeypatch.setattr(counting, "__file__", str(edited))
        assert harness._code_version() != before

    def test_spot_check_passes_on_clean_and_empty_caches(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        vacuous = harness.spot_check_cache(random.Random(1))
        assert vacuous.passed
        harness.dist_table(ClassId.ASC, 4, ("rep", "max"))
        clean = harness.spot_check_cache(random.Random(1))
        assert clean.passed

    def test_spot_check_catches_doctored_counts(self, tmp_path, monkeypatch):
        t, path = self.table_path(tmp_path, monkeypatch)
        payload = json.loads(path.read_text())
        payload["counts"][0][1] += 1
        path.write_text(json.dumps(payload))
        report = harness.spot_check_cache(random.Random(1))
        assert not report.passed
        assert report.counterexample["file"] == path.name

    def test_spot_check_draws_only_current_files(self, tmp_path, monkeypatch):
        # a file of another code version is never served, so the spot check
        # must not pick it and pass without recomputing anything
        t, path = self.table_path(tmp_path, monkeypatch)
        payload = json.loads(path.read_text())
        payload["counts"][0][1] += 1
        path.write_text(json.dumps(payload))
        stale = path.with_name(
            path.name.replace(harness._code_version(), "0" * 12))
        stale.write_text(json.dumps(dict(payload, version="0" * 12)))
        for seed in (1, 2, 3):
            report = harness.spot_check_cache(random.Random(seed))
            assert report.parameters == {"file": path.name}
            assert not report.passed
        path.unlink()
        vacuous = harness.spot_check_cache(random.Random(1))
        assert vacuous.passed and vacuous.parameters == {"file": None}

    def test_spot_check_fails_a_payload_of_another_version(
            self, tmp_path, monkeypatch):
        # dist_table recomputes such a file, so its counts are never checked;
        # the spot check reports it rather than pass it unread
        t, path = self.table_path(tmp_path, monkeypatch)
        payload = json.loads(path.read_text())
        payload.update(version="0" * 12, counts=[[[9, 9, 9, 9], 1]])
        path.write_text(json.dumps(payload))
        report = harness.spot_check_cache(random.Random(1))
        assert report.verdict == "fail"
        assert report.counterexample == {
            "file": path.name,
            "detail": "key mismatch: the payload is "
                      "ASC_n4_asc-rep-zero-max_000000000000.json"}

    def test_spot_check_fails_a_table_of_another_length(
            self, tmp_path, monkeypatch):
        # the n = 3 table under the name of n = 4 is never served, though
        # its counts are right for its own n
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        harness.dist_table(ClassId.ASC, 3, ("rep", "max"))
        short = harness._cache_path(ClassId.ASC, 3, ("rep", "max"))
        path = harness._cache_path(ClassId.ASC, 4, ("rep", "max"))
        short.rename(path)
        report = harness.spot_check_cache(random.Random(1))
        assert report.verdict == "fail"
        assert report.counterexample == {
            "file": path.name,
            "detail": "key mismatch: the payload is "
                      f"ASC_n3_asc-rep-zero-max_{harness._code_version()}.json"}


class TestCheckRegistry:
    def test_names(self):
        assert harness.CHECK_NAMES == (
            "conjecture1", "upsilon_quadruple", "psi_setvalued",
            "phi_setvalued", "zeromax_sym", "main3", "t_main3", "foata",
            "inv_sym", "lehmer_quadruple", "gf_G", "gf_zeromax", "gf_asczero",
            "case_identities", "lemma_suite", "class_counts")

    def test_accepted_parameters(self):
        assert harness.check_parameters("gf_G") == (
            "order", "points", "seed", "sym_order")
        assert harness.check_parameters("conjecture1") == ("max_n",)
        with pytest.raises(UsageError):
            harness.check_parameters("nope")

    def test_unknown_check_and_parameter(self):
        with pytest.raises(UsageError):
            harness.run_check("nope")
        with pytest.raises(UsageError):
            harness.run_check("conjecture1", points=5)

    @pytest.mark.parametrize("name, key, value", [
        ("gf_G", "points", -3), ("gf_asczero", "points", 0),
        ("lemma_suite", "max_n", 0), ("class_counts", "perm_max_n", -1),
        ("gf_G", "sym_order", 0), ("gf_zeromax", "order", True),
        ("case_identities", "order", 2.0), ("inv_sym", "max_n", "3")])
    def test_size_parameters_must_be_positive_integers(self, name, key, value):
        # a size of zero or less used to pass after testing nothing
        with pytest.raises(UsageError, match=f"parameter '{key}'"):
            harness.run_check(name, **{key: value})

    def test_none_parameters_fall_back_to_defaults(self):
        report = harness.run_check("inv_sym", max_n=None)
        assert report.passed
        assert report.parameters == {"max_n": 8}


class TestReports:
    def test_report_shape(self):
        report = harness.run_check("inv_sym", max_n=6)
        assert report.passed and report.verdict == "pass"
        d = report.as_dict()
        assert d["name"] == "inv_sym"
        assert d["parameters"] == {"max_n": 6}
        assert d["counterexample"] is None
        assert isinstance(d["seconds"], float)
        assert d["seconds"] == round(d["seconds"], 3)

    def test_doctored_table_produces_a_counterexample(
            self, tmp_path, monkeypatch):
        # poison the cached quadruple table and conjecture1 must fail
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        stats = ("asc", "rep", "zero", "max")
        harness.dist_table(ClassId.ASC, 3, stats)
        path = harness._cache_path(ClassId.ASC, 3, stats)
        payload = json.loads(path.read_text())
        payload["counts"][0][1] += 1
        path.write_text(json.dumps(payload))

        report = harness.run_check("conjecture1", max_n=3)
        assert not report.passed
        assert report.verdict == "fail"
        assert report.counterexample["n"] == 3
        assert "tuple" in report.counterexample


class TestDoubleEulerianPairing:
    def test_repetitions_pair_with_inverse_ascents(self):
        # pairing rep with inverse descents instead already fails at n = 2
        for n in (2, 3, 4):
            left = harness.dist_table(ClassId.INV, n, ("asc", "rep"))
            right = harness.dist_table(ClassId.PERM_ALL, n, ("des", "iasc"))
            assert left.counts == right.counts
        bad = harness.dist_table(ClassId.PERM_ALL, 2, ("des", "ides"))
        assert bad.counts != harness.dist_table(
            ClassId.INV, 2, ("asc", "rep")).counts


# --- pinned counterexamples under injected faults ----------------------------
#
# Each fault corrupts one function on one input value only (one table, for
# the counter), so the report does not depend on the order in which a check
# visits its inputs.

def _on(value):
    """The calls whose first argument is value."""
    return lambda x, *_: x == value


def _on_table(*request):
    """The run for one set of arguments: the counter's (class, n, names), or
    the enumeration of one (class, n)."""
    return lambda *args: args == request


def _zeros(_, out):
    return Seq((0,) * len(out))


def _unmoved(x, _):
    return x


def _plus_one(_, out):
    return out + 1


def _raised_side_index(_, out):
    return dataclasses.replace(out, side_index=out.side_index + 1)


def _refused(x, _):
    raise DomainError(f"refused {tuple(x)!r}")


def _bumped(index):
    return lambda _, out: out[:index] + (out[index] + 1,) + out[index + 1:]


def _moved(source, target):
    """Move one count of a table from key source to key target."""
    def corrupt(_, out):
        out = dict(out)
        out[source] -= 1
        if not out[source]:
            del out[source]
        out[target] = out.get(target, 0) + 1
        return out
    return corrupt


def _inject(monkeypatch, module, name, hit, corrupt):
    real = getattr(module, name)

    def faulty(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        return corrupt(x, out) if hit(x, *args) else out

    monkeypatch.setattr(module, name, faulty)


FAULTS = {
    # name: (check, max_n, module, function, which calls to corrupt,
    #        corruption, the counterexample the check must report)
    "drop": ("lemma_suite", 5, decomp, "phi_P_inv", _on((0, 1, 0)), _zeros,
             {"map": "phi_P", "n": 4, "input": [0, 1, 2, 0],
              "detail": "round trip failed"}),
    "codomain": ("lemma_suite", 5, decomp, "phi_P", _on((0, 1, 2, 0)),
                 lambda *_: Seq((1, 1, 0)),
                 {"map": "phi_P", "n": 4, "input": [0, 1, 2, 0],
                  "output": [1, 1, 0],
                  "detail": "output not an ascent sequence of length n-1"}),
    # (0, 1, 0, 2) of block P is never enumerated, so (0, 0, 1) is nobody's
    # image under phi_P
    "lemma_coverage": ("lemma_suite", 5, harness, "enumerate_class",
                       _on_table(ClassId.ASC, 4),
                       lambda _, out: tuple(s for s in out
                                            if s != (0, 1, 0, 2)),
                       {"map": "phi_P", "n": 4,
                        "detail": "image covers 4 of 5"}),
    "reduce": ("lemma_suite", 5, decomp, "s2_insert", _on((0, 1, 0)), _zeros,
               {"map": "s2_reduce", "n": 4, "input": [0, 1, 0, 0],
                "detail": "round trip failed"}),
    "shift": ("lemma_suite", 5, decomp, "mpair_shift", _on((0, 1, 1, 1)),
              _unmoved,
              {"map": "mpair_shift", "n": 4, "input": [0, 0, 0, 3],
               "detail": "down(up) round trip failed"}),
    "walk": ("lemma_suite", 5, decomp, "theta_R", _on((0, 1, 0, 0, 1)),
             _unmoved,
             {"map": "theta_R", "n": 5, "input": [0, 1, 0, 0, 1],
              "side_index": 0, "output": [0, 1, 0, 0, 1],
              "detail": "output outside the displaced subset"}),
    # the marker of one domain member moves, but not that of its image
    "contract": ("lemma_suite", 5, stats, "ealm", _on((0, 1, 2, 0)),
                 _plus_one,
                 {"map": "phi_P", "n": 4, "input": [0, 1, 2, 0],
                  "output": [0, 1, 0],
                  "detail": "statistic contract violated"}),
    "side_index": ("lemma_suite", 5, decomp, "xi_S4", _on((0, 0, 1, 0)),
                   _raised_side_index,
                   {"map": "xi_S4", "n": 4, "input": [0, 0, 1, 0],
                    "side_index": 1, "detail": "side index out of range"}),
    # (0, 1, 1) of block Pc is never enumerated, so the image of (0, 0, 1)
    # falls outside the codomain of xi_S4
    "reduce_codomain": ("lemma_suite", 5, harness, "enumerate_class",
                        _on_table(ClassId.ASC, 3),
                        lambda _, out: tuple(s for s in out
                                             if s != (0, 1, 1)),
                        {"map": "xi_S4", "n": 3, "input": [0, 0, 1],
                         "output": [0, 1, 1],
                         "detail": "output not in the complement of the "
                                   "single-submaximal subset"}),
    "reduce_contract": ("lemma_suite", 5, stats, "seq_profile",
                        _on((0, 0, 0)),
                        _bumped(stats.SEQ_PROFILE.index("asc")),
                        {"map": "s2_reduce", "n": 3, "input": [0, 0, 0],
                         "output": [0, 0],
                         "detail": "statistic contract violated"}),
    # (0, 0, 0, 0) of block S2 is never enumerated, so no member reduces
    # onto ((0, 0, 0), 0)
    "reduce_coverage": ("lemma_suite", 5, harness, "enumerate_class",
                        _on_table(ClassId.ASC, 4),
                        lambda _, out: tuple(s for s in out
                                             if s != (0, 0, 0, 0)),
                        {"map": "s2_reduce", "n": 4,
                         "detail": "image covers 4 of 5 pairs"}),
    "walk_contract": ("lemma_suite", 5, stats, "zpair", _on((0, 1, 1)),
                      _plus_one,
                      {"map": "theta_R", "n": 3, "input": [0, 0, 1],
                       "side_index": 0, "output": [0, 1, 1],
                       "detail": "statistic contract violated"}),
    "walk_round_trip": ("lemma_suite", 5, decomp, "theta_R_inv",
                        _on((0, 1, 1)), _raised_side_index,
                        {"map": "theta_R", "n": 3, "input": [0, 0, 1],
                         "side_index": 0, "detail": "round trip failed"}),
    # a map's refusal is a failure of its lemma: zpair read one low on
    # (0, 0, 1), whose paired zero is next to the top, asks for a shift up
    "refusal": ("lemma_suite", 5, stats, "zpair", _on((0, 0, 1)),
                lambda _, out: out - 1,
                {"map": "zpair_shift", "n": 3,
                 "detail": "paired zero already next to top: (0, 0, 1)"}),
    # mpair read one high on (0, 0, 1), whose paired ordinal is 0, offers
    # vartheta a target ordinal below it; the walk refuses the member by name
    "walk_refusal": ("lemma_suite", 3, stats, "mpair", _on((0, 0, 1)),
                     _plus_one,
                     {"map": "vartheta", "n": 3,
                      "detail": "index 0 outside [0, mpair-1] for "
                                "(0, 0, 1)"}),
    "pointwise_refusal": ("lehmer_quadruple", 4, bijections, "lehmer_code",
                          _on((2, 1, 3)), _refused,
                          {"n": 3, "input": [2, 1, 3],
                           "detail": "refused (2, 1, 3)"}),
    # a block member enumerated twice: each of its shifts holds, but its
    # stratum is counted twice at one marker.  (0, 1, 2, 2) lies in S1 and
    # in Pc, so no earlier lemma sees the repeat.  No fault on one map or
    # statistic reaches this failure: the shifts into and out of a member
    # check its marker and statistics first, and a member that no shift
    # moves is counted where only one marker value occurs.
    "marker_count": ("lemma_suite", 5, harness, "enumerate_class",
                     _on_table(ClassId.ASC, 4),
                     lambda _, out: (*out, Seq((0, 1, 2, 2))),
                     {"map": "ealm_shift", "n": 4,
                      "detail": "count depends on the marker at rep=1, "
                                "max=3"}),
    # the same with a member at marker 0: (0, 1, 0, 0) lies in S2, where the
    # side range of ealm_shift starts; a range cut at 1 never counts it
    "marker_floor": ("lemma_suite", 5, harness, "enumerate_class",
                     _on_table(ClassId.ASC, 4),
                     lambda _, out: (*out, Seq((0, 1, 0, 0))),
                     {"map": "ealm_shift", "n": 4,
                      "detail": "count depends on the marker at rep=2, "
                                "max=2"}),
    # the count of (0, 0, 1, 1), core (1, 2, 2, 1), with zero raised: the
    # first key of either table whose counts differ is (1, 2, 2, 1), now
    # empty in the core, against (2, 1, 1, 2) read as (rep, asc, max, zero)
    "mirror": ("conjecture1", 4, counting, "count_table",
               _on_table(ClassId.ASC, 4, ("asc", "rep", "zero", "max")),
               _moved((1, 2, 2, 1), (1, 2, 3, 1)),
               {"n": 4, "tables": ["ASC (asc,rep,zero,max)",
                                   "ASC (rep,asc,max,zero)"],
                "tuple": [1, 2, 2, 1], "counts": [0, 1]}),
    "setvalued": ("phi_setvalued", 4, bijections, "phi", _on((2, 1, 3)),
                  _zeros,
                  {"n": 3, "input": [2, 1, 3], "output": [0, 0, 0],
                   "expected": [[1], [2], [1, 3], [3]],
                   "actual": [[], [], [1, 2, 3], [3]]}),
    "pointwise": ("lehmer_quadruple", 4, bijections, "lehmer_code",
                  _on((2, 1, 3)), _zeros,
                  {"n": 3, "input": [2, 1, 3], "output": [0, 0, 0],
                   "expected": [1, 2, 2, 1], "actual": [0, 3, 1, 1]}),
    # an image of another length is no member of the class at n
    "length": ("lehmer_quadruple", 4, bijections, "lehmer_code",
               _on((2, 1, 3)), lambda *_: Seq((0, 1)),
               {"n": 3, "input": [2, 1, 3], "output": [0, 1],
                "detail": "code is not an inversion sequence"}),
    # one permutation of length 3 is never enumerated, so one inversion
    # sequence is nobody's Lehmer code
    "coverage": ("lehmer_quadruple", 4, harness, "enumerate_class",
                 _on_table(ClassId.PERM_ALL, 3), lambda _, out: (*out,)[:-1],
                 {"n": 3, "detail": "image covers 5 of 6 members of INV"}),
    # the (des, ides) table of PERM_ALL is counted: the count of 213, core
    # (1, 1), with des raised
    "agreement": ("foata", 4, counting, "count_table",
                  _on_table(ClassId.PERM_ALL, 3, ("des", "ides")),
                  _moved((1, 1), (2, 1)),
                  {"n": 3, "tables": ["INV (asc,rep)", "PERM_ALL (des,iasc)"],
                   "tuple": [1, 1], "counts": [4, 3]}),
    # the T21 table of t_main3 is the one whose marker is still enumerated
    "marker": ("t_main3", 5, stats, "mpair", _on((0, 1, 1, 1)), _plus_one,
               {"n": 4, "tables": ["T21 (rep,max,mpair)",
                                   "ASC (rep,max,ealm)"],
                "tuple": [2, 2, 1], "counts": [1, 2]}),
    # and the two ASC tables are counted: (0, 1, 0, 1) counted with zpair 0
    "counted_marker": ("t_main3", 5, counting, "count_table",
                       _on_table(ClassId.ASC, 4, ("asc", "zero", "zpair")),
                       _moved((2, 2, 1), (2, 2, 0)),
                       {"n": 4, "tables": ["T21 (rep,max,mpair)",
                                           "ASC (asc,zero,zpair)"],
                        "tuple": [2, 2, 0], "counts": [2, 3]}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_injected_fault_is_reported_as_pinned(fault, tmp_path, monkeypatch):
    check, max_n, module, name, hit, corrupt, counterexample = FAULTS[fault]
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    _inject(monkeypatch, module, name, hit, corrupt)
    report = harness.run_check(check, max_n=max_n).as_dict()
    del report["seconds"]
    assert report == {"name": check, "parameters": {"max_n": max_n},
                      "verdict": "fail", "counterexample": counterexample}


@pytest.mark.parametrize("name", ["lehmer_quadruple", "psi_setvalued"])
def test_transports_never_enumerate_their_target(name, monkeypatch):
    # the images are ranked among the counted members of the target class
    source, _, target = harness._CHECKS[name][0].args[:3]
    enumerated = []
    real = harness.enumerate_class
    monkeypatch.setattr(harness, "enumerate_class",
                        lambda cid, n: enumerated.append(cid) or real(cid, n))
    assert harness.run_check(name, max_n=5).passed
    assert enumerated == [source] * 5 and target not in enumerated


def test_lemma_suite_reads_no_validating_statistics(monkeypatch):
    # every object the lemmas read has passed membership first, so the
    # verifiers read the fused kernels, never the validating scalar_stats
    def refused(s):
        raise AssertionError(f"scalar_stats called on {s!r}")

    real = stats.scalar_stats
    for module in (stats, harness, decomp):
        if getattr(module, "scalar_stats", None) is real:
            monkeypatch.setattr(module, "scalar_stats", refused)
    assert harness.run_check("lemma_suite", max_n=5).passed


def test_marker_only_reader_runs_no_profile_kernel(monkeypatch):
    calls = []
    kernel = stats.seq_profile
    monkeypatch.setattr(stats, "seq_profile",
                        lambda s: calls.append(s) or kernel(s))
    s = Seq((0, 1, 2, 0, 1))
    assert harness._value_fn(ClassId.ASC, ("ealm",))(s) == (stats.ealm(s),)
    assert calls == []
    # a reader that takes a profile statistic too runs the kernel once
    got = harness._value_fn(ClassId.ASC, ("ealm", "max"))(s)
    max_index = stats.SEQ_PROFILE.index("max")
    assert got == (stats.ealm(s), kernel(s)[max_index]) and calls == [s]


def test_class_count_fault_is_reported_as_pinned(tmp_path, monkeypatch):
    # the sequence classes are counted, not enumerated: one count too many
    # of C at n = 5
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    _inject(monkeypatch, counting, "count_table",
            _on_table(ClassId.C, 5, ("asc",)),
            lambda _, out: {**out, (0,): out[(0,)] + 1})
    report = harness.run_check("class_counts", max_n=6, perm_max_n=4)
    assert report.verdict == "fail"
    assert report.as_dict()["counterexample"] == {
        "n": 5, "class": "C", "expected": 53, "actual": 54}
    assert list(tmp_path.iterdir()) == []  # and no table was cached


def test_avoider_count_fault_is_reported_as_pinned(tmp_path, monkeypatch):
    # the avoiders are counted too, up to perm_max_n: one count too many of
    # PERM_AVOID_B at n = 4, the top size
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    _inject(monkeypatch, counting, "count_table",
            _on_table(ClassId.PERM_AVOID_B, 4, ("des",)),
            lambda _, out: {**out, (0,): out[(0,)] + 1})
    report = harness.run_check("class_counts", max_n=2, perm_max_n=4)
    assert report.as_dict()["counterexample"] == {
        "n": 4, "class": "PERM_AVOID_B", "expected": 15, "actual": 16}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("params", [{"max_n": 13, "perm_max_n": 1},
                                    {"max_n": 1, "perm_max_n": 11}])
def test_class_counts_keep_their_caps(params):
    with pytest.raises(ResourceLimitError):
        harness.run_check("class_counts", **params)


# The cache is filled through the counter and the spot check recomputes by
# enumeration, so a fault on either side makes it fail; each fault stays in
# place for both.
SPOT_FAULTS = {
    # name: (module, function, which calls to corrupt, corruption, the
    #        statistics of the ASC table at n = 4, its first differing key,
    #        and the cached and the recomputed count of that key)
    "counter": FAULTS["mirror"][2:6] + (
        ("rep", "max"), (1, 2, 2, 1), (0, 1)),
    "kernel": (stats, "seq_profile", _on((0, 0, 1, 1)),
               _bumped(stats.SEQ_PROFILE.index("zero")), ("rep", "max"),
               (1, 2, 2, 1), (1, 0)),
    # the marker table is counted, so a fault on the marker shows only in
    # the recount: (0, 1, 0, 1) recounted with zpair 2
    "marker": (stats, "zpair", _on((0, 1, 0, 1)), _plus_one,
               ("asc", "zero", "zpair"), (2, 2, 1), (2, 1)),
}


@pytest.mark.parametrize("fault", SPOT_FAULTS)
def test_spot_check_sets_the_counter_against_enumeration(
        fault, tmp_path, monkeypatch):
    (module, name, hit, corrupt, names, key,
     (cached, recomputed)) = SPOT_FAULTS[fault]
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    _inject(monkeypatch, module, name, hit, corrupt)
    harness.dist_table(ClassId.ASC, 4, names)
    report = harness.spot_check_cache(random.Random(1))
    path = harness._cache_path(ClassId.ASC, 4, names)
    assert report.counterexample == {
        "file": path.name, "tuple": list(key), "cached": cached,
        "recomputed": recomputed}


def test_spot_check_recounts_past_the_default_sizes(tmp_path, monkeypatch):
    # past n = 10, the largest default max_n of the checks, a counted table
    # is recounted: the ASC core at n = 11 has 1,422,074 members
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    harness.dist_table(ClassId.ASC, 11, ("asc",))
    path = harness._cache_path(ClassId.ASC, 11, ("asc",))

    def refused(*args, **kwargs):
        raise AssertionError(f"enumerate_class{args!r} called")

    monkeypatch.setattr(harness, "enumerate_class", refused)
    report = harness.spot_check_cache(random.Random(1))
    assert (report.verdict, report.parameters) == ("pass", {"file": path.name})
    # and the recount still catches a corrupted file
    payload = json.loads(path.read_text())
    key, count = payload["counts"][0]
    payload["counts"][0][1] += 1
    path.write_text(json.dumps(payload))
    assert harness.spot_check_cache(random.Random(1)).counterexample == {
        "file": path.name, "tuple": key, "cached": count + 1,
        "recomputed": count}


def test_spot_check_reads_a_length_past_the_cap_as_unreadable(
        tmp_path, monkeypatch):
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    harness.dist_table(ClassId.ASC, 4, ("asc",))
    path = harness._cache_path(ClassId.ASC, 4, ("asc",))
    payload = json.loads(path.read_text())
    payload["n"] = 13
    path.write_text(json.dumps(payload))
    report = harness.spot_check_cache(random.Random(1))
    assert report.verdict == "fail"
    assert report.counterexample == {
        "file": path.name,
        "detail": "unreadable: length 13 exceeds the cap of 12 for ASC"}


def _bump_coefficient(power):
    def corrupt(out):
        coeffs = list(out.coeffs)
        coeffs[power] += 1
        return genfun.TruncSeries(coeffs, out.order)
    return corrupt


def _is_case_part(label):
    return lambda profile, order, point: (
        profile is genfun._case_profiles(order)[1][label])


SERIES_FAULTS = {
    # name: (check, parameters, module, function, which calls to corrupt,
    #        corruption, the counterexample the check must report)
    # harness imports series_G by name, so its own binding is the one patched;
    # the series at each point is built once, at max(order, sym_order)
    "series": ("gf_G", {"order": 5, "points": 2, "seed": 3, "sym_order": 10},
               harness, "series_G", lambda order, point: order == 10,
               _bump_coefficient(5),
               {"point_index": 0,
                "point": {"x": "2/5", "q": "3", "u": "3/5", "z": "4/5",
                          "w": "1/5"},
                "n": 5, "expected": "131300652/1953125",
                "actual": "133253777/1953125"}),
    # both calls per point, so the series stay symmetric in q and z; only
    # the comparison at n = order sees the bump
    "zeromax": ("gf_zeromax", {"order": 5, "points": 2, "seed": 3},
                harness, "series_zeromax", lambda *_: True,
                _bump_coefficient(5),
                {"point_index": 0,
                 "point": {"x": "2/5", "q": "3", "u": "3/5", "z": "4/5",
                           "w": "1/5"},
                 "n": 5, "expected": "2544612/3125",
                 "actual": "2547737/3125"}),
    "profile": ("case_identities", {"order": 5, "points": 2, "seed": 3},
                genfun, "_profile_series", _is_case_part("S3"),
                _bump_coefficient(5),
                {"point_index": 0,
                 "point": {"x": "2/5", "q": "3", "u": "3/5", "z": "4/5",
                           "w": "1/5"},
                 "case": 3, "order": 5, "first_bad_power": 5,
                 "expected": "1086577/390625", "actual": "695952/390625"}),
}


@pytest.mark.parametrize("fault", SERIES_FAULTS)
def test_injected_series_fault_is_reported_as_pinned(
        fault, tmp_path, monkeypatch):
    check, params, module, name, hit, corrupt, counterexample = (
        SERIES_FAULTS[fault])
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    real = getattr(module, name)

    def faulty(*args):
        out = real(*args)
        return corrupt(out) if hit(*args) else out

    monkeypatch.setattr(module, name, faulty)
    report = harness.run_check(check, **params).as_dict()
    del report["seconds"]
    assert report == {"name": check, "parameters": params,
                      "verdict": "fail", "counterexample": counterexample}


def test_gf_G_builds_one_series_per_point(tmp_path, monkeypatch):
    # the table comparison and the symmetry check share the point's series,
    # which is cut to sym_order when that is the lower order
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    orders = []
    real = harness.series_G

    def counted(order, point):
        orders.append(order)
        return real(order, point)

    monkeypatch.setattr(harness, "series_G", counted)
    for order, sym_order in ((5, 7), (6, 4)):
        orders.clear()
        report = harness.run_check("gf_G", order=order, points=2, seed=3,
                                   sym_order=sym_order)
        assert report.verdict == "pass"
        assert orders == [max(order, sym_order)] * 2 + [sym_order] * 2


SERIES_CHECKS = ("gf_G", "gf_zeromax", "gf_asczero", "case_identities")


def test_series_checks_enumerate_nothing(tmp_path, monkeypatch):
    # the tables are read from a warm cache and the case profiles are
    # counted, so no series check lists a class
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    toy = {"order": 5, "points": 2, "seed": 3}
    for name in SERIES_CHECKS:
        assert harness.run_check(name, **toy).passed
    genfun._case_profiles.cache_clear()
    genfun._whole_series.cache_clear()

    def refused(*args, **kwargs):
        raise AssertionError(f"enumerate_class{args!r} called")

    real = seqcore.enumerate_class
    patched = []
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "fishburn"
                and getattr(module, "enumerate_class", None) is real):
            monkeypatch.setattr(module, "enumerate_class", refused)
            patched.append(name)
    assert {"fishburn.seqcore", "fishburn.harness"} <= set(patched)
    warm = sorted(tmp_path.iterdir())
    for name in SERIES_CHECKS:
        assert harness.run_check(name, **toy).passed
    assert sorted(tmp_path.iterdir()) == warm != []


def test_case_identities_reach_past_enumeration():
    # at order 12 the ASC sequences number 10,886,503 at n = 12 alone; the
    # counted profiles take about two seconds
    report = harness.run_check("case_identities", order=12, points=3)
    assert report.passed
    assert report.parameters == {"order": 12, "points": 3, "seed": 2026}
