"""Distribution tables, the disk cache, and the named check suite."""

import dataclasses
import io
import json
import random
from pathlib import Path

import pytest

from fishburn.errors import ResourceLimitError, UsageError
from fishburn.seqcore import ClassId, Seq
from fishburn import bijections, counting, decomp, genfun, harness, stats


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
    def test_file_text_is_the_json_dump_text(self, rows):
        # the rows are written a block at a time, across block boundaries
        payload = {"class": "ASC", "n": 9, "stats": ["rep", "max"],
                   "version": "0" * 12,
                   "counts": [[[i, i % 7], 31 * i] for i in range(rows)]}
        handle, want = io.StringIO(), io.StringIO()
        harness._write_json(handle, payload)
        json.dump(payload, want)
        assert handle.getvalue() == want.getvalue()

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
        profile = harness._cache_path(ClassId.ASC, 5, ("rep", "max"))
        assert sorted(tmp_path.iterdir()) == [profile]
        assert runs == [(ClassId.ASC, 5, stats.SEQ_PROFILE)]
        # a marker table is a table of its own
        harness.dist_table(ClassId.ASC, 5, ("rep", "max", "ealm"))
        marked = harness._cache_path(ClassId.ASC, 5, ("rep", "max", "ealm"))
        assert sorted(tmp_path.iterdir()) == sorted([profile, marked])
        # and, as markers have no tracker, is enumerated
        assert len(runs) == 1

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
        # poison the cached quadruple table and the mirror check must fail
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
    # the count of (0, 0, 1, 1), profile (1, 2, 2, 1, 2), with zero raised
    "mirror": ("conjecture1", 4, counting, "count_table",
               _on_table(ClassId.ASC, 4, stats.SEQ_PROFILE),
               _moved((1, 2, 2, 1, 2), (1, 2, 3, 1, 2)),
               {"n": 4, "tuple": [1, 2, 3, 1], "count": 3,
                "mirror": [2, 1, 1, 3], "mirror_count": 2}),
    "setvalued": ("phi_setvalued", 4, bijections, "phi", _on((2, 1, 3)),
                  _zeros,
                  {"n": 3, "input": [2, 1, 3], "output": [0, 0, 0],
                   "expected": [[1], [2], [1, 3], [3]],
                   "actual": [[], [], [1, 2, 3], [3]]}),
    "pointwise": ("lehmer_quadruple", 4, bijections, "lehmer_code",
                  _on((2, 1, 3)), _zeros,
                  {"n": 3, "input": [2, 1, 3], "output": [0, 0, 0],
                   "expected": [1, 2, 2, 1], "actual": [0, 3, 1, 1]}),
    "agreement": ("foata", 4, stats, "perm_profile", _on((2, 1, 3)),
                  _bumped(stats.PERM_PROFILE.index("des")),
                  {"n": 3, "tables": ["INV (asc,rep)", "PERM_ALL (des,iasc)"],
                   "tuple": [1, 1], "counts": [4, 3]}),
    "marker": ("t_main3", 5, stats, "zpair", _on((0, 1, 0, 1)), _plus_one,
               {"n": 4, "tables": ["T21 (rep,max,mpair)",
                                   "ASC (asc,zero,zpair)"],
                "tuple": [2, 2, 1], "counts": [2, 1]}),
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


@pytest.mark.parametrize("params", [{"max_n": 13, "perm_max_n": 1},
                                    {"max_n": 1, "perm_max_n": 11}])
def test_class_counts_keep_their_caps(params):
    with pytest.raises(ResourceLimitError):
        harness.run_check("class_counts", **params)


# The cache is filled through the counter and the spot check recomputes by
# enumeration, so a fault on either side makes it fail; each fault stays in
# place for both.
SPOT_FAULTS = {
    # name: (module, function, which calls to corrupt, corruption,
    #        the cached and the recomputed count of (1, 2, 2, 1, 2))
    "counter": FAULTS["mirror"][2:6] + ((0, 1),),
    "kernel": (stats, "seq_profile", _on((0, 0, 1, 1)),
               _bumped(stats.SEQ_PROFILE.index("zero")), (1, 0)),
}


@pytest.mark.parametrize("fault", SPOT_FAULTS)
def test_spot_check_sets_the_counter_against_enumeration(
        fault, tmp_path, monkeypatch):
    module, name, hit, corrupt, (cached, recomputed) = SPOT_FAULTS[fault]
    monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
    _inject(monkeypatch, module, name, hit, corrupt)
    harness.dist_table(ClassId.ASC, 4, ("rep", "max"))
    report = harness.spot_check_cache(random.Random(1))
    path = harness._cache_path(ClassId.ASC, 4, ("rep", "max"))
    assert report.counterexample == {
        "file": path.name, "tuple": [1, 2, 2, 1, 2], "cached": cached,
        "recomputed": recomputed}


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
