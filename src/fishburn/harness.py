"""Distribution tables with disk caching, and the named theorem-check suite.

Every check is deterministic given its parameters and seed, iterates lengths
in ascending order and objects in lexicographic order, and stops at the first
failure, so a fail report always carries a minimal counterexample: a table
check reports the first key, over the keys of both tables, whose counts differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

from . import bijections, counting, decomp, stats
from .errors import ResourceLimitError, UsageError
from .genfun import (DistTable, SpecPoint, admissible_for_case_identity,
                     admissible_for_length_series, check_case_identity,
                     eval_gf, fishburn_series, random_point, series_G,
                     series_asczero, series_zeromax)
from .seqcore import ClassId, cap, check_class, check_size, enumerate_class

CACHE_ENV = "FISHBURN_CACHE"

_PERM_SCALARS = ("des", "ides", "iasc", "lmax", "lmin", "rmax")
# statistics read off a profile entry x of a length-n object as n - 1 - x
_DERIVED = {"nasc": "asc", "iasc": "ides"}
# the statistics that the table checks read, of which each (class, n) has
# one table: (asc, rep, zero, max) on sequences, Foata's (des, ides) on
# permutations
_SEQ_CORE = ("asc", "rep", "zero", "max")
_PERM_CORE = ("des", "ides")


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "fishburn"


def _code_version() -> str:
    """Short hash of the sources that shape a table's content: enumeration,
    the step-rule counter, statistics, and this module's value builders,
    cache keys and marginals.

    Any edit to those modules invalidates every cached table.  The hash is
    taken once per process for each set of source paths.
    """
    from . import seqcore as _seqcore
    return _source_digest((_seqcore.__file__, counting.__file__,
                           stats.__file__, __file__))


@lru_cache(maxsize=None)
def _source_digest(paths: tuple) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()[:12]


def _check_length(class_id: ClassId, n) -> int:
    limit = cap("table", class_id)
    if check_size(n, "length") > limit:
        raise ResourceLimitError(
            f"length {n} exceeds the cap of {limit} for {class_id.name}")
    return n


def _slot(profile: tuple, name: str) -> tuple:
    """(index in profile, whether name is derived as n - 1 - x from it)."""
    base = _DERIVED.get(name, name)
    return profile.index(base), base != name


def _value_fn(class_id: ClassId, names: tuple):
    """Build obj -> tuple of statistic values, or refuse the combination.

    The values come from the fused kernels of stats, which do not validate:
    apply the result only to enumerator output or to checked members.
    Kernels and markers are read off stats at each call, so patched and
    traced bindings are the ones exercised.
    """
    perm = class_id.is_permutation_class
    profile = stats.PERM_PROFILE if perm else stats.SEQ_PROFILE
    slots = []  # (marker or None, profile index, derived)
    for name in names:
        if name in (_PERM_SCALARS if perm else stats.SEQ_SCALARS):
            slots.append((None, *_slot(profile, name)))
        elif perm:
            raise UsageError(
                f"statistic {name!r} does not apply to {class_id.name}; "
                f"usable: {', '.join(_PERM_SCALARS)}")
        elif name in stats.MARKERS:
            home = stats.MARKERS[name]
            if class_id is not home:
                raise UsageError(
                    f"statistic {name!r} applies to {home.name}, "
                    f"not {class_id.name}")
            slots.append((getattr(stats, name), 0, False))
        else:
            raise UsageError(
                f"unknown statistic {name!r}; usable: "
                f"{', '.join(stats.SEQ_SCALARS + tuple(stats.MARKERS))}")
    kernel = getattr(stats, "perm_profile" if perm else "seq_profile")
    # plain profile entries only; itemgetter of one index returns no tuple
    if len(slots) > 1 and not any(mark or derived for mark, _, derived in slots):
        pick = itemgetter(*(i for _, i, _ in slots))
        return lambda obj: pick(kernel(obj))
    if all(mark for mark, _, _ in slots):  # markers only: no profile pass
        return lambda obj: tuple([mark(obj) for mark, _, _ in slots])

    def values(obj):
        key, last = kernel(obj), len(obj) - 1
        return tuple([mark(obj) if mark else last - key[i] if derived else key[i]
                      for mark, i, derived in slots])
    return values


def _table_stats(class_id: ClassId, names: tuple) -> tuple:
    """Statistics of the table that serves names: the class's core when
    every name is a core statistic or derived from one, else names."""
    core = _PERM_CORE if class_id.is_permutation_class else _SEQ_CORE
    if all(_DERIVED.get(name, name) in core for name in names):
        return core
    return names


def _cache_name(class_id: ClassId, n: int, served: tuple, version) -> str:
    """Name of the file of a table: the key that dist_table serves it to."""
    return f"{class_id.name}_n{n}_{'-'.join(served)}_{version}.json"


def _cache_path(class_id: ClassId, n: int, names: tuple) -> Path:
    """File of the table that serves names (see _table_stats)."""
    served = _table_stats(class_id, names)
    return cache_dir() / _cache_name(class_id, n, served, _code_version())


def _store_table(path: Path, table: DistTable) -> None:
    payload = {
        "class": table.class_id.name,
        "n": table.n,
        "stats": list(table.stats),
        "version": _code_version(),
        "counts": [[list(key), count]
                   for key, count in sorted(table.counts.items())],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # write-then-rename so concurrent readers never see a partial file
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_table(path: Path, class_id: ClassId, n: int, names: tuple):
    try:
        with open(path) as handle:
            payload = json.load(handle)
        if (payload["class"] != class_id.name or payload["n"] != n
                or tuple(payload["stats"]) != names
                or payload["version"] != _code_version()):
            return None
        counts = {tuple(key): count for key, count in payload["counts"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return DistTable(class_id, n, names, counts)


def _compute_table(class_id: ClassId, n: int, names: tuple) -> DistTable:
    """The table by enumeration: the reference for the counted tables."""
    values = _value_fn(class_id, names)
    counts = Counter(map(values, enumerate_class(class_id, n)))
    return DistTable(class_id, n, names, dict(counts))


def _marginal(table: DistTable, names: tuple) -> DistTable:
    """The table of names, each a statistic of table or derived from one."""
    slots = [_slot(table.stats, name) for name in names]
    last = table.n - 1
    counts = Counter()
    for key, count in table.counts.items():
        counts[tuple(last - key[i] if derived else key[i]
                     for i, derived in slots)] += count
    return DistTable(table.class_id, table.n, names, dict(counts))


def dist_table(class_id: ClassId, n: int, stat_names, use_cache: bool = True) -> DistTable:
    """Exact joint distribution of the named statistics over a class.

    When every name is a core statistic of the class, (asc, rep, zero, max)
    on sequences or (des, ides) on permutations, or derived from one (nasc,
    iasc), the table is the marginal of the class's core table at n;
    otherwise (rmin, a permutation record or a marker is named) it is a
    table of its own.  Every core table, and a table of rmin or of ealm or
    zpair over ASC, is counted layer by layer over the step rules
    (counting.count_table); the tables of the permutation records and of
    mpair, mpos and zpos are enumerated.  Either table is cached on disk
    under one JSON file per (class, n, table statistics, code-version) key;
    set the FISHBURN_CACHE environment variable to move the cache directory.
    """
    n = _check_length(check_class(class_id), n)
    names = tuple(stat_names)
    if not names:
        raise UsageError("at least one statistic name is required")
    _value_fn(class_id, names)  # validate before touching the cache
    served = _table_stats(class_id, names)
    path = _cache_path(class_id, n, names)
    table = _load_table(path, class_id, n, served) if use_cache else None
    if table is None:
        if counting.counted(class_id, served):
            table = DistTable(class_id, n, served,
                              counting.count_table(class_id, n, served))
        else:
            table = _compute_table(class_id, n, served)
        if use_cache:
            _store_table(path, table)
    return table if served == names else _marginal(table, names)


@dataclass(frozen=True)
class CheckReport:
    name: str
    parameters: dict
    verdict: str                 # "pass" or "fail"
    counterexample: dict | None
    seconds: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        return {"name": self.name, "parameters": self.parameters,
                "verdict": self.verdict,
                "counterexample": self.counterexample,
                "seconds": round(self.seconds, 3)}


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, SpecPoint):
        return value.as_dict()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, ClassId):
        return value.name
    return value


def _table_diff(left: dict, right: dict):
    """Lexicographically first key whose counts differ, or None."""
    for key in sorted(set(left) | set(right)):
        if left.get(key, 0) != right.get(key, 0):
            return key, left.get(key, 0), right.get(key, 0)
    return None


# ---------------------------------------------------------------------------
# the named checks; each returns None on pass or a counterexample dict


def _transported(class_id, names):
    """obj -> the values of names: set-valued names (upper case) off one
    perm_sets or seq_sets tuple per object, which _pointwise reads only on
    trusted objects, and scalar names by _value_fn."""
    if not names[0].isupper():
        return _value_fn(class_id, names)
    perm = class_id.is_permutation_class
    order = stats.PERM_SETS if perm else stats.SEQ_SETS
    pick = itemgetter(*(order.index(name) for name in names))
    kernel = getattr(stats, "perm_sets" if perm else "seq_sets")
    return lambda obj: pick(kernel(obj))


def _pointwise(source, map_name, target, want, got, detail, max_n):
    """The bijection sends each source object of length n to a member of
    target of length n, carries the statistics want of the object to the
    statistics got of its image, is injective, and covers target.  target
    is counted, not enumerated: each image is ranked among the length-n
    members of target by counting.ranker, so a rank of None is an image
    outside target, and a slot marked before is a collision, reported after
    the statistics."""
    want_of, got_of = _transported(source, want), _transported(target, got)
    for n in range(1, max_n + 1):
        rank, size = counting.ranker(target, n)
        seen = bytearray(size)
        for x in enumerate_class(source, n):
            out = getattr(bijections, map_name)(x)
            at = rank(out)
            if at is None:
                return {"n": n, "input": x, "output": out, "detail": detail}
            expected, actual = want_of(x), got_of(out)
            if expected != actual:
                return {"n": n, "input": x, "output": out,
                        "expected": expected, "actual": actual}
            if seen[at]:
                return {"n": n, "output": out, "detail": "image collision"}
            seen[at] = 1
        if (covered := seen.count(1)) < size:
            return {"n": n, "detail": f"image covers {covered} of {size} "
                                      f"members of {target.name}"}
    return None


def _agree(tables, max_n):
    """Each (class, statistics) table equals the first one, at every n."""
    labels = [f"{cls.name} ({','.join(names)})" for cls, names in tables]
    for n in range(1, max_n + 1):
        counts = [dist_table(cls, n, names).counts for cls, names in tables]
        for label, other in zip(labels[1:], counts[1:]):
            if diff := _table_diff(counts[0], other):
                key, a, b = diff
                return {"n": n, "tables": [labels[0], label],
                        "tuple": key, "counts": [a, b]}
    return None


def _chk_gf_G(order, points, seed, sym_order):
    rng = random.Random(seed)
    pts = [random_point(rng, admissible_for_length_series)
           for _ in range(points)]
    tables = [dist_table(ClassId.ASC, n, ("rep", "max", "asc", "zero"))
              for n in range(1, order + 1)]
    # one series per point serves both comparisons: its coefficients up to
    # any order do not depend on the order it was built at
    built = [series_G(max(order, sym_order), point) for point in pts]
    for index, (point, series) in enumerate(zip(pts, built)):
        wants = eval_gf(tables, point)
        for n in range(1, order + 1):
            got = series.coefficient(n)
            if wants[n] != got:
                return {"point_index": index, "point": point, "n": n,
                        "expected": wants[n], "actual": got}
    for index, (point, series) in enumerate(zip(pts, built)):
        swapped = SpecPoint(x=point.u, q=point.z, u=point.x, z=point.q)
        if series.truncate(sym_order) != series_G(sym_order, swapped):
            return {"point_index": index, "point": point,
                    "detail": f"asymmetric under (x,q)<->(u,z) at order {sym_order}"}
    return None


def _chk_gf_zeromax(order, points, seed):
    rng = random.Random(seed)
    pts = [random_point(rng) for _ in range(points)]
    tables = [dist_table(ClassId.ASC, n, ("zero", "max"))
              for n in range(1, order + 1)]
    for index, point in enumerate(pts):
        series = series_zeromax(order, point.q, point.z)
        if series != series_zeromax(order, point.z, point.q):
            return {"point_index": index, "point": point,
                    "detail": "coefficients not symmetric in q and z"}
        wants = eval_gf(tables, point)
        for n in range(1, order + 1):
            got = series.coefficient(n)
            if wants[n] != got:
                return {"point_index": index, "point": point, "n": n,
                        "expected": wants[n], "actual": got}
    return None


def _chk_gf_asczero(order, points, seed):
    rng = random.Random(seed)
    pts = [random_point(rng) for _ in range(points)]
    for index, point in enumerate(pts):
        first = series_asczero(order, point.u, point.z, "primitive")
        second = series_asczero(order, point.u, point.z, "alternative")
        if first != second:
            return {"point_index": index, "point": point,
                    "detail": "the two variants disagree"}
        both = series_G(order, SpecPoint(u=point.u, z=point.z))
        if first != both:
            return {"point_index": index, "point": point,
                    "detail": "variants disagree with the four-marker series at x=q=1"}
    return None


def _chk_case_identities(order, points, seed):
    rng = random.Random(seed)
    usable = lambda p: p.w not in (0, 1) and admissible_for_case_identity(p)
    pts = [random_point(rng, usable) for _ in range(points)]
    # annihilation point: every (z-1) term drops out
    pts.append(SpecPoint(x=2, q=3, u=5, z=1, w=0))
    for index, point in enumerate(pts):
        for case in (1, 2, 3, 4):
            report = check_case_identity(case, order, point)
            if not report.ok:
                bad = next(k for k in range(order + 1)
                           if report.lhs.coeffs[k] != report.rhs.coeffs[k])
                return {"point_index": index, "point": point, "case": case,
                        "order": order, "first_bad_power": bad,
                        "expected": report.lhs.coeffs[bad],
                        "actual": report.rhs.coeffs[bad]}
    return None


def _chk_class_counts(max_n, perm_max_n):
    """Every class is counted over the step rules, the sequence classes as
    the total of their asc table and the avoiders of their des table.  The
    reference series refuses max_n past the "series" cap of seqcore.CAPS,
    and perm_max_n is refused past the "enumerate n!" cap, the reach of the
    enumeration that the avoider counts stand in for."""
    limit = cap("enumerate", ClassId.PERM_AVOID_A)
    if perm_max_n > limit:
        raise ResourceLimitError(
            f"length {perm_max_n} exceeds the enumeration limit {limit} "
            f"for the avoider classes")
    reference = fishburn_series(max(max_n, perm_max_n, 1))
    jobs = [(cls, max_n, ("asc",)) for cls in
            (ClassId.ASC, ClassId.T21, ClassId.B, ClassId.C)]
    jobs += [(cls, perm_max_n, ("des",)) for cls in
             (ClassId.PERM_AVOID_A, ClassId.PERM_AVOID_B)]
    for n in range(1, max(max_n, perm_max_n) + 1):
        for cls, top, names in jobs:
            if n > top:
                continue
            count = sum(counting.count_table(cls, n, names).values())
            expected = reference.coefficient(n)
            if count != expected:
                return {"n": n, "class": cls, "expected": int(expected),
                        "actual": count}
    return None


# --- lemma_suite -----------------------------------------------------------
#
# Each decomposition map has one of four shapes (decomp.MAPS), and one
# verifier per shape checks its lemma over every sequence of length n:
#   drop    forward is a bijection from the domain block onto the codomain:
#           it moves the statistics by the deltas, keeps the marker and
#           round trips, and the images cover the codomain.
#   reduce  forward is a bijection from the domain block onto the pairs
#           (t, i) with t in the codomain and i in the side-index range of t;
#           i is the marker of the input, the statistics move by the deltas,
#           and zero also drops by one exactly when i is 0.
#   shift   up and down move the marker by one inside the domain block,
#           keep the statistics (every delta is 0) and undo each other; the
#           block's count at fixed statistics must not depend on the marker.
#   walk    for each side index i in the range of s, forward sends s into
#           the codomain with marker i and the statistics moved by the
#           deltas; the inverse recovers (s, i) and the images cover the
#           codomain.
# A block is (scheme, *labels) of decomp.classify.  A level is the members
# of one class at one length, with their labels under each scheme, which
# classify gives once per member when a block first asks.  A codomain is
# (length drop, block or None for the whole class, its description).  A
# side-index range (lo, hi) is read off the sequence the index is paired
# with; each bound is 0, a scalar statistic or a marker.

# lemma -> (class, domain block, codomain, side-index range,
#           statistic deltas, marker)
_LEDGER = {
    "phi_P": (ClassId.ASC, ("ASC_P", "P"),
              (1, None, "an ascent sequence of length n-1"), None,
              {"asc": 1, "max": 1, "rep": 0, "zero": 0}, "ealm"),
    "xi_S4": (ClassId.ASC, ("ASC_S", "S4"),
              (0, ("ASC_P", "Pc"),
               "in the complement of the single-submaximal subset"),
              (0, "ealm"), {"asc": 0, "rep": 0, "max": -1}, "ealm"),
    "s2_reduce": (ClassId.ASC, ("ASC_S", "S2"),
                  (1, ("ASC_S", "S1", "S2", "S3", "S4"),
                   "a shorter non-identity-run ascent sequence"),
                  ("ealm", "max"), {"asc": 0, "max": 0, "rep": 1}, "ealm"),
    "s3_reduce": (ClassId.ASC, ("ASC_S", "S3"),
                  (1, None, "an ascent sequence of length n-1"),
                  (0, "ealm"), {"asc": 1, "max": 0, "rep": 1}, "ealm"),
    "ealm_shift": (ClassId.ASC, ("ASC_S", "S1", "S2", "S3"), None,
                   (0, "max"), {"rep": 0, "max": 0}, "ealm"),
    "psi_F": (ClassId.T21, ("T_F", "F"),
              (1, None, "a (2-1)-avoiding sequence of length n-1"), None,
              {"max": 1, "rep": 0}, "mpair"),
    "mpair_shift": (ClassId.T21, ("T_J", "J1"), None,
                    (0, "max"), {"rep": 0, "max": 0}, "mpair"),
    "vartheta": (ClassId.T21, ("T_F", "Fc"),
                 (0, ("T_J", "J2"), "the displaced subset"),
                 (0, "mpair"), {"rep": 0, "max": 1}, "mpair"),
    "phi_G": (ClassId.ASC, ("ASC_G", "G"),
              (1, None, "an ascent sequence of length n-1"), None,
              {"zero": 1, "asc": 0}, "zpair"),
    "zpair_shift": (ClassId.ASC, ("ASC_R", "R1"), None,
                    (0, "zero"), {"asc": 0, "zero": 0}, "zpair"),
    "theta_R": (ClassId.ASC, ("ASC_G", "Gc"),
                (0, ("ASC_R", "R2"), "the displaced subset"),
                (0, "zpair"), {"asc": 0, "zero": 1}, "zpair"),
}

# schemes that cannot classify the run of maximals (or of zeros) itself,
# and the statistic that equals the length exactly on that run
_GUARDS = {"ASC_S": "max", "T_J": "max", "ASC_R": "zero"}


def _reader(class_id, name):
    """obj -> its statistic or marker name, read by _value_fn; an int reads
    as itself."""
    if isinstance(name, int):
        return lambda _: name
    value = _value_fn(class_id, (name,))
    return lambda s: value(s)[0]


def _level(class_id, n) -> tuple:
    """(the members of class_id at length n, their labels by scheme)."""
    return list(enumerate_class(class_id, n)), {}


def _block(class_id, level, block):
    (objs, labels), (scheme, *wanted) = level, block
    tags = labels.get(scheme)
    if tags is None:
        guard = _reader(class_id, _GUARDS.get(scheme, 0))  # 0: no guard
        tags = labels[scheme] = [
            decomp.classify(s, scheme) if guard(s) < len(s) else None
            for s in objs]
    return [s for s, tag in zip(objs, tags) if tag in wanted]


@dataclass(frozen=True)
class _Row:
    """A _LEDGER row at one length n: the maps and marker bound now on
    decomp and stats (so patched and traced bindings run), the domain block
    and codomain in enumeration order, and readers of the side-index range
    and of the statistics of deltas, in order (then zero, for a reduce)."""
    fail: Callable  # **detail -> the counterexample
    forward: Callable
    inverse: Callable
    mark: Callable
    domain: list
    targets: list         # the codomain (a shift reads none)
    codomain: str | None  # its description
    side: Callable
    values: Callable
    deltas: dict


def _resolve(name, n, levels) -> _Row:
    """The row of name at length n; levels maps each class to its levels at
    n and n - 1."""
    shape, forward, inverse = decomp.MAPS[name]
    class_id, block, codomain, side, deltas, marker = _LEDGER[name]
    domain = _block(class_id, levels[class_id][0], block)
    drop, target_block, description = codomain or (0, None, None)
    target = levels[class_id][drop]
    targets = (_block(class_id, target, target_block) if target_block
               else target[0])
    lo, hi = side or (0, 0)
    lo, hi = _reader(class_id, lo), _reader(class_id, hi)
    names = (*deltas, "zero") if shape == "reduce" else tuple(deltas)
    return _Row(partial(dict, map=name, n=n),
                getattr(decomp, forward.__name__),
                getattr(decomp, inverse.__name__), getattr(stats, marker),
                domain, targets, description, lambda s: range(lo(s), hi(s)),
                _value_fn(class_id, names), deltas)


def _moved(a, b, deltas) -> bool:
    """Each value of a equals that of b plus its delta, in order."""
    return all(x == y + d for x, y, d in zip(a, b, deltas.values()))


def _verify_drop(row):
    target_set, images = set(row.targets), set()
    for s in row.domain:
        out = row.forward(s)
        if out not in target_set:
            return row.fail(input=s, output=out,
                            detail=f"output not {row.codomain}")
        if (row.mark(s) != row.mark(out)
                or not _moved(row.values(s), row.values(out), row.deltas)):
            return row.fail(input=s, output=out,
                            detail="statistic contract violated")
        if row.inverse(out) != s:
            return row.fail(input=s, detail="round trip failed")
        images.add(out)
    if images != target_set:
        return row.fail(detail=f"image covers {len(images)} of "
                               f"{len(target_set)}")
    return None


def _verify_reduce(row):
    target_set, pairs = set(row.targets), set()
    for s in row.domain:
        res = row.forward(s)
        out, i = res.output, res.side_index
        if out not in target_set:
            return row.fail(input=s, output=out,
                            detail=f"output not {row.codomain}")
        if i != row.mark(s) or i not in row.side(out):
            return row.fail(input=s, side_index=i,
                            detail="side index out of range")
        if not _moved(row.values(s), row.values(out),
                      {**row.deltas, "zero": int(i == 0)}):
            return row.fail(input=s, output=out,
                            detail="statistic contract violated")
        if row.inverse(out, i) != s:
            return row.fail(input=s, detail="round trip failed")
        pairs.add((out, i))
    want = {(t, i) for t in row.targets for i in row.side(t)}
    if pairs != want:
        return row.fail(detail=f"image covers {len(pairs)} of "
                               f"{len(want)} pairs")
    return None


def _verify_shift(row):
    # the round trip from s is the opposite shift made from its image
    shift = lru_cache(maxsize=None)(row.forward)
    member_set = set(row.domain)
    profile, sides = Counter(), {}  # sides: kept statistics -> side range
    for s in row.domain:
        kept, i = row.values(s), row.mark(s)
        side = sides[kept] = row.side(s)
        profile[(i, *kept)] += 1
        for there, back, step, movable in (
                ("up", "down", 1, i < side.stop - 1),
                ("down", "up", -1, i > side.start)):
            if not movable:
                continue
            moved = shift(s, there)
            if (moved not in member_set or row.mark(moved) != i + step
                    or not _moved(row.values(moved), kept, row.deltas)):
                return row.fail(input=s, output=moved,
                                detail=f"{there} contract violated")
            if shift(moved, back) != s:
                return row.fail(input=s,
                                detail=f"{back}({there}) round trip failed")
    for _, *kept in sorted(profile):
        side = sides[tuple(kept)]
        if any(profile[(j, *kept)] != profile[(side.start, *kept)]
               for j in side):
            where = ", ".join(f"{k}={v}" for k, v in zip(row.deltas, kept))
            return row.fail(detail=f"count depends on the marker at {where}")
    return None


def _verify_walk(row):
    target_set, outputs = set(row.targets), set()
    for s in row.domain:
        for i in row.side(s):
            out = row.forward(s, i)
            if out not in target_set:
                return row.fail(input=s, side_index=i, output=out,
                                detail=f"output outside {row.codomain}")
            if (row.mark(out) != i
                    or not _moved(row.values(s), row.values(out), row.deltas)):
                return row.fail(input=s, side_index=i, output=out,
                                detail="statistic contract violated")
            res = row.inverse(out)
            if res.output != s or res.side_index != i:
                return row.fail(input=s, side_index=i,
                                detail="round trip failed")
            outputs.add(out)
    if outputs != target_set:
        return row.fail(detail=f"image covers {len(outputs)} of "
                               f"{len(target_set)}")
    return None


_VERIFIERS = {"drop": _verify_drop, "reduce": _verify_reduce,
              "shift": _verify_shift, "walk": _verify_walk}


def _chk_lemma_suite(max_n):
    classes = (ClassId.ASC, ClassId.T21)
    below = {cls: _level(cls, 1) for cls in classes}
    for n in range(2, max_n + 1):
        levels = {cls: (_level(cls, n), below[cls]) for cls in classes}
        for name, (shape, _, _) in decomp.MAPS.items():
            found = _VERIFIERS[shape](_resolve(name, n, levels))
            if found:
                return found
        below = {cls: pair[0] for cls, pair in levels.items()}
    return None


_CHECKS = {
    "conjecture1": (partial(_agree, (
                        (ClassId.ASC, ("asc", "rep", "zero", "max")),
                        (ClassId.ASC, ("rep", "asc", "max", "zero")))),
                    {"max_n": 10}),
    "upsilon_quadruple": (partial(_pointwise, ClassId.ASC, "upsilon",
                                  ClassId.ASC, ("asc", "rep", "zero", "max"),
                                  ("rep", "asc", "rmin", "zero"),
                                  "image is not an ascent sequence"),
                          {"max_n": 8}),
    "psi_setvalued": (partial(_pointwise, ClassId.PERM_AVOID_A, "psi",
                              ClassId.ASC,
                              ("DES", "IDES", "LMIN", "LMAX", "RMAX"),
                              ("ASC", "DIST", "MAX", "ZERO", "RMIN"),
                              "image is not an ascent sequence"),
                      {"max_n": 8}),
    "phi_setvalued": (partial(_pointwise, ClassId.PERM_AVOID_B, "phi",
                              ClassId.ASC, ("DES", "IDES", "LMAX", "RMAX"),
                              ("ASC", "DIST", "ZERO", "RMIN"),
                              "image is not an ascent sequence"),
                      {"max_n": 8}),
    "zeromax_sym": (partial(_agree, ((ClassId.ASC, ("zero", "max")),
                                     (ClassId.ASC, ("max", "zero")))),
                    {"max_n": 10}),
    "main3": (partial(_agree, ((ClassId.ASC, ("rep", "max")),
                               (ClassId.T21, ("rep", "max")),
                               (ClassId.ASC, ("asc", "zero")))),
              {"max_n": 10}),
    "t_main3": (partial(_agree, ((ClassId.T21, ("rep", "max", "mpair")),
                                 (ClassId.ASC, ("rep", "max", "ealm")),
                                 (ClassId.ASC, ("asc", "zero", "zpair")))),
                {"max_n": 9}),
    # the double Eulerian pair on permutations is (des, iasc); pairing rep
    # with ides instead already fails at n = 2
    "foata": (partial(_agree, ((ClassId.INV, ("asc", "rep")),
                               (ClassId.PERM_ALL, ("des", "iasc")))),
              {"max_n": 8}),
    "inv_sym": (partial(_agree, ((ClassId.INV, ("asc", "rep")),
                                 (ClassId.INV, ("rep", "asc")))),
                {"max_n": 8}),
    "lehmer_quadruple": (partial(_pointwise, ClassId.PERM_ALL, "lehmer_code",
                                 ClassId.INV, ("des", "lmax", "lmin", "rmax"),
                                 ("asc", "zero", "max", "rmin"),
                                 "code is not an inversion sequence"),
                         {"max_n": 8}),
    "gf_G": (_chk_gf_G,
             {"order": 9, "points": 20, "seed": 2026, "sym_order": 10}),
    "gf_zeromax": (_chk_gf_zeromax, {"order": 9, "points": 20, "seed": 2026}),
    "gf_asczero": (_chk_gf_asczero, {"order": 9, "points": 20, "seed": 2026}),
    "case_identities": (_chk_case_identities,
                        {"order": 8, "points": 10, "seed": 2026}),
    "lemma_suite": (_chk_lemma_suite, {"max_n": 7}),
    "class_counts": (_chk_class_counts, {"max_n": 10, "perm_max_n": 9}),
}

CHECK_NAMES = tuple(_CHECKS)


def _check_entry(name: str) -> tuple:
    entry = _CHECKS.get(name)
    if entry is None:
        raise UsageError(
            f"unknown check {name!r}; available: {', '.join(CHECK_NAMES)}")
    return entry


def check_parameters(name: str) -> tuple:
    """Parameter names a given check accepts."""
    return tuple(_check_entry(name)[1])


def merged_parameters(name: str, **params) -> dict:
    """The parameters a check runs with: its defaults, overridden by every
    value in params that is set (not None).  Refuses a parameter the check
    does not take and a size (every parameter but seed) that is not a
    positive integer."""
    defaults = _check_entry(name)[1]
    merged = dict(defaults)
    for key, value in params.items():
        if value is None:
            continue
        if key not in defaults:
            raise UsageError(
                f"check {name!r} does not take parameter {key!r}; "
                f"accepted: {', '.join(defaults)}")
        merged[key] = value
    for key, value in merged.items():
        # a size of zero or less would pass vacuously after testing nothing
        if key != "seed":
            check_size(value, f"parameter {key!r} of check {name!r}")
    return merged


def run_check(name: str, **params) -> CheckReport:
    """Run one named theorem check; unset (None) parameters take defaults."""
    fn = _check_entry(name)[0]
    merged = merged_parameters(name, **params)
    start = time.perf_counter()
    counterexample = fn(**merged)
    elapsed = time.perf_counter() - start
    verdict = "pass" if counterexample is None else "fail"
    return CheckReport(name, _jsonable(merged), verdict,
                       _jsonable(counterexample), elapsed)


def spot_check_cache(rng=None) -> CheckReport:
    """Recompute one randomly chosen cached table of this code version by
    enumeration and compare.

    Run alongside the full suite to catch stale or corrupted cache files;
    when it draws a table that dist_table counts over the step rules, such
    as a core table, it also sets the counter against the enumerator.
    Past the largest default max_n of the checks a counted table is
    recounted instead.  A file whose class, n, statistics or version differ
    from the key of its name fails unrecomputed.  Passes vacuously when the
    cache is empty.
    """
    rng = rng or random.Random()
    start = time.perf_counter()
    # only files of this code version are ever read by dist_table
    pattern = f"*_{_code_version()}.json"
    files = sorted(cache_dir().glob(pattern)) if cache_dir().is_dir() else []
    if not files:
        return CheckReport("cache_spotcheck", {"file": None}, "pass", None,
                           time.perf_counter() - start)
    picked = rng.choice(files)
    counterexample = None
    try:
        with open(picked) as handle:
            payload = json.load(handle)
        class_id = ClassId[payload["class"]]
        n = _check_length(class_id, payload["n"])
        names = tuple(payload["stats"])
        cached = {tuple(k): c for k, c in payload["counts"]}
        # dist_table serves a file only to the key of its name
        held = _cache_name(class_id, n, names, payload["version"])
        if held != picked.name:
            counterexample = {"file": picked.name,
                              "detail": f"key mismatch: the payload is {held}"}
        else:
            enumerated = max(p.get("max_n", 0) for _, p in _CHECKS.values())
            fresh = (counting.count_table(class_id, n, names)
                     if n > enumerated and counting.counted(class_id, names)
                     else _compute_table(class_id, n, names).counts)
            if diff := _table_diff(cached, fresh):
                key, a, b = diff
                counterexample = {"file": picked.name, "tuple": list(key),
                                  "cached": a, "recomputed": b}
    except (OSError, ValueError, KeyError, TypeError, ResourceLimitError) as exc:
        counterexample = {"file": picked.name, "detail": f"unreadable: {exc}"}
    verdict = "pass" if counterexample is None else "fail"
    return CheckReport("cache_spotcheck", {"file": picked.name}, verdict,
                       counterexample, time.perf_counter() - start)
