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
from functools import lru_cache, partial
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from . import bijections, counting, decomp, stats
from .errors import DomainError, ResourceLimitError, UsageError
from .genfun import (DistTable, SpecPoint, admissible_for_case_identity,
                     admissible_for_length_series, check_case_identity,
                     eval_gf, fishburn_series, random_point, series_G,
                     series_asczero, series_zeromax)
from .seqcore import (ClassId, check_class, check_size, enumerate_class,
                      within_cap)

CACHE_ENV = "FISHBURN_CACHE"

# the core of each class, of which each (class, n) has one table: the
# statistics that the table checks read of it.  main3 reads Levande's
# (rep, max) of T21; foata and inv_sym read Foata's (asc, rep) of INV, and
# foata (des, iasc) of PERM_ALL.  No check reads B, C or the avoiders: they
# keep the core of their kind.
_SEQ_CORE = ("asc", "rep", "zero", "max")
_PERM_CORE = ("des", "ides")
_CORES = {ClassId.ASC: _SEQ_CORE, ClassId.B: _SEQ_CORE, ClassId.C: _SEQ_CORE,
          ClassId.T21: ("rep", "max"), ClassId.INV: ("asc", "rep"),
          ClassId.PERM_ALL: _PERM_CORE, ClassId.PERM_AVOID_A: _PERM_CORE,
          ClassId.PERM_AVOID_B: _PERM_CORE}


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


def _slot(profile: tuple, name: str) -> tuple:
    """(index in profile, whether name is derived as n - 1 - x from it)."""
    base = stats.DERIVED.get(name, name)
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
        if name in (stats.PERM_SCALARS if perm else stats.SEQ_SCALARS):
            slots.append((None, *_slot(profile, name)))
        elif perm:
            raise UsageError(
                f"statistic {name!r} does not apply to {class_id.name}; "
                f"usable: {', '.join(stats.PERM_SCALARS)}")
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
    core = _CORES[class_id]
    if all(stats.DERIVED.get(name, name) in core for name in names):
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
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # write-then-rename so concurrent readers never see a partial file
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            # json.dump always takes the pure-Python encoder; dumps the C one
            handle.write(json.dumps(payload))
        os.replace(tmp, path)
    except OSError as exc:  # exit 2: exit 1 is kept for a failed check
        raise UsageError(f"cannot write the table cache in {path.parent}: "
                         f"{exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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

    When every name is a core statistic of the class, one that its table
    checks read (see _CORES), or derived from one (nasc, iasc), the table
    is the marginal of the class's core table at n; otherwise (rmin, zero
    on T21, a permutation record or a marker is named, say) it is a table
    of its own.  Every core table, and a table of other sequence fields or
    of ealm or zpair over ASC, is counted layer by layer over the step
    rules (counting.count_table); the tables of the permutation records and
    of mpair, mpos and zpos are enumerated.  Either table is cached on disk
    under one JSON file per (class, n, table statistics, code-version) key;
    set the FISHBURN_CACHE environment variable to move the cache directory.
    A cache directory that cannot be written is a UsageError.
    """
    within_cap(n, "table", "length", check_class(class_id))
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


class CheckReport(NamedTuple):
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
            try:
                out = getattr(bijections, map_name)(x)
            except DomainError as refusal:  # the map refused a member
                return {"n": n, "input": x, "detail": str(refusal)}
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
    and within_cap refuses perm_max_n past the "enumerate n!" cap, the
    reach of the enumeration that the avoider counts stand in for."""
    within_cap(perm_max_n, "enumerate", "length", ClassId.PERM_AVOID_A)
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
# verifier checks each as one bijection from the pairs (s, i) of its domain
# onto the pairs (t, j) of its codomain, over every sequence of length n.
# Only a walk sets i, over the side-index range of s, and only a reduce sets
# j, over that of t; an unset index is None.  A shift is up, from the block
# members below the top of their side range onto those above its bottom,
# and down is its inverse.  A pair's marker is its index when set, else its
# sequence's; the image's marker is the input's, or one more for a shift,
# the statistics move by the deltas (zero by one more when j is 0), the
# inverse gives back (s, i), no pair is met twice and the images cover the
# codomain, counted with multiplicity.  A reduce's j is also the marker of s.
# So a shift block has one count at every marker, at fixed statistics: up
# carries each marker level injectively into the next, and onto it.
# A level is the members of one class at one length, with their labels
# under each scheme, which decomp.classify gives once per member when a
# block first asks, and none to the run of anchors that it refuses (the
# members whose statistic of decomp.GUARDS is the length).


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
        guard = _reader(class_id, decomp.GUARDS.get(scheme, 0))  # 0: none
        tags = labels[scheme] = [
            decomp.classify(s, scheme) if guard(s) < len(s) else None
            for s in objs]
    return [s for s, tag in zip(objs, tags) if tag in wanted]


class _Row(NamedTuple):
    """A decomp.MAPS row at one length n: its shape, the maps as maps of
    pairs (see _pairs) and marker bound now on decomp and stats (so patched
    and traced bindings run), the domain and codomain in enumeration order,
    and readers of the side-index range and of the statistics of deltas, in
    order (then zero, for a reduce)."""
    shape: str
    fail: Callable  # **detail -> the counterexample
    forward: Callable
    inverse: Callable
    mark: Callable
    domain: list
    targets: list  # the codomain
    codomain: str  # its description
    side: Callable
    values: Callable
    deltas: dict


def _pairs(shape, forward, inverse) -> tuple:
    """The forward and inverse of a row as maps of (sequence, side index)
    pairs, an unset index None: a walk's forward reads an index, a reduce's
    forward writes one, and a shift's forward is up and its inverse down."""
    if shape == "walk":
        return lambda s, i: (forward(s, i), None), lambda t, _: inverse(t)
    if shape == "reduce":
        return lambda s, _: forward(s), lambda t, j: (inverse(t, j), None)
    if shape == "shift":
        return (lambda s, _: (forward(s, "up"), None),
                lambda t, _: (inverse(t, "down"), None))
    return lambda s, _: (forward(s), None), lambda t, _: (inverse(t), None)


def _resolve(name, n, levels) -> _Row:
    """The row of name at length n; levels maps each class to its levels at
    n and n - 1."""
    (shape, forward, inverse, class_id, block, codomain, side, deltas,
     marker) = decomp.MAPS[name]
    forward, inverse = _pairs(shape, getattr(decomp, forward.__name__),
                              getattr(decomp, inverse.__name__))
    mark = getattr(stats, marker)
    lo, hi = side or (0, 0)
    lo, hi = _reader(class_id, lo), _reader(class_id, hi)
    domain = _block(class_id, levels[class_id][0], block)
    if shape == "shift":  # up moves a marker below the top to one above lo
        targets = [t for t in domain if mark(t) > lo(t)]
        domain = [s for s in domain if mark(s) < hi(s) - 1]
        description = "in the block above the bottom of its range"
    else:
        drop, target_block, description = codomain
        target = levels[class_id][drop]
        targets = (_block(class_id, target, target_block) if target_block
                   else target[0])
    names = (*deltas, "zero") if shape == "reduce" else tuple(deltas)
    return _Row(shape, partial(dict, map=name, n=n), forward, inverse, mark,
                domain, targets, description,
                lambda s: range(lo(s), hi(s)), _value_fn(class_id, names),
                deltas)


def _moved(a, b, deltas) -> bool:
    """Each value of a equals that of b plus its delta, in order."""
    return all(x == y + d for x, y, d in zip(a, b, deltas))


def _verify_bijection(row):
    walk, reduce = row.shape == "walk", row.shape == "reduce"
    lift = row.shape == "shift"  # up raises the marker by one
    unset = (None,)
    # the deltas when j is not 0, and when it is: zero moves one more (a
    # drop's, walk's or shift's values read no zero, and zip stops before it)
    moves = (*row.deltas.values(), 0), (*row.deltas.values(), 1)

    def failed(s, i, detail, **output):
        index = {} if i is None else {"side_index": i}
        return row.fail(input=s, **index, **output, detail=detail)

    forward, inverse, mark, side, values = (
        row.forward, row.inverse, row.mark, row.side, row.values)
    target_set, images = set(row.targets), set()
    for s in row.domain:
        for i in side(s) if walk else unset:
            t, j = pair = forward(s, i)
            if t not in target_set:
                where = "outside" if walk else "not"
                return failed(s, i, f"output {where} {row.codomain}",
                              output=t)
            m = mark(s) if i is None else i  # the marker of (s, i)
            if j is not None and (j != m or j not in side(t)):
                return failed(s, j, "side index out of range")
            if (m + lift != (mark(t) if j is None else j)
                    or not _moved(values(s), values(t), moves[j == 0])):
                return failed(s, i, "statistic contract violated", output=t)
            if inverse(t, j) != (s, i):
                return failed(s, i, "round trip failed")
            if pair in images:
                return failed(s, i, "image collision")
            images.add(pair)
    # a member listed twice is counted twice, so no image set covers it
    want = sum(len(side(t)) if reduce else 1 for t in row.targets)
    if len(images) != want:
        pairs = " pairs" if reduce else ""
        return row.fail(detail=f"image covers {len(images)} of {want}{pairs}")
    return None


def _chk_lemma_suite(max_n):
    classes = (ClassId.ASC, ClassId.T21)
    below = {cls: _level(cls, 1) for cls in classes}
    for n in range(2, max_n + 1):
        levels = {cls: (_level(cls, n), below[cls]) for cls in classes}
        for name in decomp.MAPS:
            try:
                found = _verify_bijection(_resolve(name, n, levels))
            except DomainError as refusal:  # decomp refused a member
                found = {"map": name, "n": n, "detail": str(refusal)}
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


def spot_check_cache(rng: random.Random) -> CheckReport:
    """Recompute one randomly chosen cached table of this code version by
    enumeration and compare.

    Run alongside the full suite to catch stale or corrupted cache files;
    when it draws a table that dist_table counts over the step rules, such
    as a core table, it also sets the counter against the enumerator.
    Past the largest default max_n of the checks a counted table is
    recounted instead.  A file whose class, n, statistics or version differ
    from the key of its name fails unrecomputed.  Passes vacuously when the
    cache is empty.  rng draws the file, so a seeded one repeats the draw.
    """
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
        n = within_cap(payload["n"], "table", "length", class_id)
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
