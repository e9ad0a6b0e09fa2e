"""Statistic tables counted over the step rules, with no enumeration.

A member of a class in seqcore._RULES grows one entry at a time, and the
step rule sees only (state, m, prev, v).  Prefixes that agree on the
rule state, on their last entry and on the running fields that the requested
statistics read have the same extensions, with the same effect on those
statistics, so one count stands for all of them.  A layer maps each key
(state, prev, fields) to the number of prefixes it stands for, and the next
layer extends every key by each admissible entry, read off the extension
table of that index, _extensions, memoised per (state, prev), since the
keys that differ only in their fields share it: a transfer-matrix count
(Flajolet and Sedgewick, Analytic Combinatorics, V.6) over the recursive
construction of Bousquet-Mélou, Claesson, Dukes and Kitaev (JCTA 2010).
_count is the one reader of that table; seqcore.graph, which meets each
(index, state, prev) key once, calls the step rule itself.

A tracker reads one statistic off the running fields.  Appending the entry v
at 0-based index m after the entry prev updates each field as follows:

  asc    + 1 when prev < v                  asc
  used   the bit set of values, | 2^v       rep = n - |used|
  zero   + 1 when v = 0                     zero
  max    + 1 when v = m                     max
  rmin   the bit set C of the values of the entries smaller than every
         later one: C <- (C & (2^v - 1)) | 2^v
                                            rmin = |C|
  ealm   v when prev = m - 1 and v != m     ealm
  gap    the zeros from the last zero followed by a 1 on (all of them
         while there is none): 1 when prev = 0 and v = 1, + 1 when v = 0
                                            zpair = zero - gap
  des    + 1 when prev > v                  des
  ides   + 1 when v + 1 is already placed   ides

The des and ides trackers serve the permutation classes, and only they do.
The rule state of PERM_ALL and of both avoiders is the bit set of placed
values, which ides reads, so its step is computed once per (state, prev, v)
and not, like the others, once per (prev, v).  The other trackers read
sequence statistics, and their bit-set fields hold n values, which would
lose the value n of a permutation; lmax, lmin and rmax have no tracker.

The ealm and gap rules hold on the ascent sequences, whose maximals are the
initial run 0, 1, ..., p-1: prev = m - 1 only while the prefix is that run,
so ealm is set once, to s[p], and stays 0 on the run itself.  So the markers
are counted over their home class of stats.MARKERS only; mpair, mpos and
zpos have no tracker, and every other marker table is enumerated.

The fields a request needs are packed side by side into one int, so that
the counts and bit sets of one entry move with one AND, one OR and one ADD.

Two layer loops serve three requests.  The first, _walk_sizes, serves
sizes, the number of members of each length, which reads no statistic: its
layers are keyed by (state, prev) alone, and it calls the step rule itself,
with no extension table, whose memo, keyed by (state, prev) too, would make
each entry for the one layer key that reads it, once.  Nor is the last
layer stored: each key there only adds its count once per admissible
entry.  Over a sequence class, whose entries at index m range over 0..m at
every length, one walk counts every length; over a permutation class, whose
entries range over 1..n, it takes one walk per length.

The second, _count, serves two requests.  count_table reads the
trackers of a profile or marker table.  count_cases reads the five-marker
profile (rep, max, ealm, asc, zero) of each suffix case S1..S4 of the ascent
sequences, the populations of the case identities in genfun: its step rule
is the ASC rule with the fields that decide the case (the run length p =
max, ealm = s[p] and two flags, each set once) carried in the rule state.
The loop reads nothing until the last entry is placed.  It folds the final
transitions by their fields, each set field squashed to its size (all that
rep and rmin read of a set), and by the final rule state only for
count_cases, whose reader reads the case off it.  The reader then runs once
per distinct key: once per key of the table for the core (asc, rep, zero,
max).

The members are ranked by the recursive method of Nijenhuis and Wilf
(Combinatorial Algorithms, 1978), over the nodes of seqcore.graph, which
enumerate_class walks too.  The members that agree with a member s up to
index m and take a smaller entry there precede s, so the rank of s sums,
over each index, the completions of the smaller admissible entries, which
each node holds per entry.  So a rank costs one lookup per entry, and a word
that the rule refuses, or whose entry leaves entry_range, has no rank.
"""

from __future__ import annotations

from collections import Counter

from . import stats
from .errors import UsageError
from .seqcore import (ClassId, _RULES, _asc_step, check_class, check_size,
                      entry_range, graph)

# tracker -> (the field it reads, whether the statistic is the size of that
# field as a set, whether it is n minus the reading, and the field whose
# reading is subtracted from it, if any)
TRACKERS = {
    "asc": ("asc", False, False, None), "rep": ("used", True, True, None),
    "zero": ("zero", False, False, None), "max": ("max", False, False, None),
    "rmin": ("rmin", True, False, None), "ealm": ("ealm", False, False, None),
    "zpair": ("zero", False, False, "gap"),
    "des": ("des", False, False, None), "ides": ("ides", False, False, None),
}
_PERM_TRACKERS = ("des", "ides")


def counted(class_id: ClassId, names: tuple) -> bool:
    """Whether count_table serves the table of names over class_id: des and
    ides over the permutation classes, the other trackers over the sequence
    classes, and a marker over its home class only."""
    return (class_id in _RULES and bool(names)
            and all(name in TRACKERS
                    and ((name in _PERM_TRACKERS)
                         == class_id.is_permutation_class)
                    and stats.MARKERS.get(name, class_id) is class_id
                    for name in names))


class _Layout:
    """Bit offsets of the fields that the trackers of names read: n bits
    for a set of values, enough for the numbers 0..n otherwise."""

    def __init__(self, names: tuple, n: int):
        self.n = n
        self.at, self.mask = {}, {}
        fields = {}  # field -> whether it is a set
        for name in names:
            field, is_set, _, minus = TRACKERS[name]
            fields.setdefault(field, is_set)
            if minus:
                fields.setdefault(minus, False)
        offset = 0
        for field, is_set in fields.items():
            width = n if is_set else n.bit_length()
            self.at[field], self.mask[field] = offset, (1 << width) - 1
            offset += width
        # (offset, bits) of each set field, at most used and rmin
        self.sets = [(self.at[field], self.mask[field] << self.at[field])
                     for field, is_set in fields.items() if is_set]

    def ops(self, m: int, prev: int, v: int) -> tuple:
        """(keep, put, add) appending v at index m after prev: the fields
        become ((packed & keep) | put) + add."""
        at, bit = self.at, 1 << v
        keep, put, add = -1, 0, 0
        if "asc" in at:
            add += (prev < v) << at["asc"]
        if "zero" in at:
            add += (v == 0) << at["zero"]
        if "max" in at:
            add += (v == m) << at["max"]
        if "des" in at:
            add += (prev > v) << at["des"]
        if "used" in at:
            put |= bit << at["used"]
        if "rmin" in at:
            # candidates >= v are no longer smaller than every later entry
            keep &= ~((self.mask["rmin"] & -bit) << at["rmin"])
            put |= bit << at["rmin"]
        if "ealm" in at and prev == m - 1 and v != m:
            put |= v << at["ealm"]  # once, so the field is still 0
        if "gap" in at:
            if prev == 0 and v == 1:
                keep &= ~(self.mask["gap"] << at["gap"])
                put |= 1 << at["gap"]
            add += (v == 0) << at["gap"]
        return keep, put, add

    def reader(self, names: tuple):
        """(rule state, folded fields) -> the tuple of the values of names,
        which the fields alone decide; a set field holds its size (see
        _count)."""
        plan = []
        for name in names:
            field, _, from_n, minus = TRACKERS[name]
            sign, const = (-1, self.n) if from_n else (1, 0)
            plan.append((self.at[field], self.mask[field], sign, const,
                         self.at.get(minus, 0), self.mask.get(minus, 0)))

        def read(state, folded):
            return tuple([const + sign * (folded >> at & mask)
                          - (folded >> less_at & less_mask)
                          for at, mask, sign, const, less_at, less_mask
                          in plan])
        return read


def _extensions(step, layout, perm, m):
    """(state, prev) -> the admissible entries at index m of a length-n
    member after prev, as (v, next state, the ops of v) in increasing v.
    Memoised per (state, prev) for as long as _count holds the table, since
    the layer keys that differ only in their fields share one entry.  The
    ops of each (prev, v) are computed once and shared, and ides, which
    reads the state, is added to them per (state, prev, v)."""
    memo, ops, ides = {}, {}, layout.at.get("ides")
    values = entry_range(perm, layout.n, m)

    def entry_ops(state, prev, v):
        found = ops.get((prev, v))
        if found is None:
            found = ops[prev, v] = layout.ops(m, prev, v)
        if ides is not None and state >> (v + 1) & 1:
            keep, put, add = found
            return keep, put, add + (1 << ides)
        return found

    def extend(state, prev):
        found = memo.get((state, prev))
        if found is None:
            found = memo[state, prev] = tuple(
                (v, nxt, entry_ops(state, prev, v)) for v in values
                if (nxt := step(state, m, prev, v)) is not None)
        return found
    return extend


def _count(step, state, n, layout, read, perm=False,
           by_state=False) -> Counter:
    """{read(final state, folded fields): count} over the length-n members
    of the class that the step rule grows from state, a permutation class
    when perm is set.  The folded fields hold the size of each set field in
    its place, and read sees the final state only when by_state is set
    (None otherwise)."""
    layer = {(state, 0, 0): 1}
    for m in range(n - 2):
        extend = _extensions(step, layout, perm, m)
        grown = {}
        for (state, prev, fields), count in layer.items():
            for v, nxt, (keep, put, add) in extend(state, prev):
                key = nxt, v, (fields & keep | put) + add
                grown[key] = grown.get(key, 0) + count
        layer = grown
    # The last two entries (one when n = 1) of each key go straight into
    # final, so the two widest layers are never held.  final is keyed by the
    # fields with each set squashed to its size, and by the final state only
    # when read reads it, so that read runs once per key of the table.
    last = _extensions(step, layout, perm, n - 1)
    # a missing set field is (0, 0), which squashes nothing
    (at1, set1), (at2, set2) = (layout.sets + [(0, 0)] * 2)[:2]
    rest = ~(set1 | set2)
    final = {}

    def finish(state, prev, fields, count):
        for _, nxt, (keep, put, add) in last(state, prev):
            packed = (fields & keep | put) + add
            key = (packed & rest | (packed & set1).bit_count() << at1
                   | (packed & set2).bit_count() << at2)
            if by_state:
                key = nxt, key
            final[key] = final.get(key, 0) + count

    if n == 1:
        finish(state, 0, 0, 1)
    else:
        extend = _extensions(step, layout, perm, n - 2)
        for (state, prev, fields), count in layer.items():
            for v, nxt, (keep, put, add) in extend(state, prev):
                finish(nxt, v, (fields & keep | put) + add, count)
    table = Counter()
    for key, count in final.items():
        table[read(*key) if by_state else read(None, key)] += count
    return table


def count_table(class_id: ClassId, n: int, names: tuple) -> dict:
    """The joint distribution of names over the members of class_id of
    length n, as {tuple of values: count}, counted layer by layer."""
    check_class(class_id)
    check_size(n, "length")
    names = tuple(names)
    if not counted(class_id, names):
        raise UsageError(
            f"no step-rule count of ({', '.join(names)}) over "
            f"{class_id.name}; trackers: {', '.join(TRACKERS)} (des and ides "
            f"over the permutation classes only, the others over the "
            f"sequence classes, a marker over its home class only)")
    step, state = _RULES[class_id]
    layout = _Layout(names, n)
    return dict(_count(step, state, n, layout, layout.reader(names),
                       class_id.is_permutation_class))


def _walk_sizes(step, start, top, perm):
    """The number of prefixes of each length 1..top that the step rule grows
    from the state start, its entries ranging as in a length-top member.
    It calls the step rule once per layer key and candidate, with no memo
    (see the module docstring)."""
    layer, totals = {(start, 0): 1}, []
    for m in range(top):
        values, grown, total = entry_range(perm, top, m), {}, 0
        for (state, prev), count in layer.items():
            for v in values:
                nxt = step(state, m, prev, v)
                if nxt is not None:
                    total += count
                    if m < top - 1:
                        grown[nxt, v] = grown.get((nxt, v), 0) + count
        layer = grown
        totals.append(total)
    return totals


def sizes(class_id: ClassId, top: int) -> list:
    """[the number of members of class_id of length n for n in 1..top],
    counted layer by layer over (rule state, last entry) alone."""
    check_class(class_id)
    check_size(top, "top")
    step, start = _RULES[class_id]
    if class_id.is_permutation_class:
        return [_walk_sizes(step, start, n, True)[-1]
                for n in range(1, top + 1)]
    return _walk_sizes(step, start, top, False)


def ranker(class_id: ClassId, n: int) -> tuple:
    """(rank, size): size is the number of members of class_id of length
    n, and rank(obj) the index of obj among them in lexicographic order, or
    None when obj is no such member."""
    root, size = graph(class_id, n)

    def rank(obj):
        if len(obj) != n:
            return None
        node, index = root, 0
        for v in obj:
            found = node.get(v)
            if found is None:
                return None
            offset, node = found
            index += offset
        return index
    return rank, size


def _case_step(state, m, prev, v):
    """The ASC step rule, with the fields that decide the suffix case
    (decomp.classify, scheme ASC_S) carried in its state.

    The maximals of an ascent sequence are its initial run 0, 1, ..., p-1,
    so max = p.  The state is (asc, p, ealm, case).  The case is "" while
    the sequence is that run, and otherwise the case it would have if it
    ended here: "S1" while the entry ealm = s[p] is the last one, then
    "S2" if s[p] >= s[p+1], else "S4" once the value p occurs at an index
    >= p+1 and "S3" until it does.
    """
    asc, p, ealm, case = state
    asc = _asc_step(asc, m, prev, v)
    if asc is None:
        return None
    if not case:
        return (asc, 0, 0, "") if v == m else (asc, m, v, "S1")
    if case == "S1":
        case = "S2" if ealm >= v else "S4" if v == p else "S3"
    elif case == "S3" and v == p:
        case = "S4"
    return asc, p, ealm, case


def count_cases(n: int) -> dict:
    """The ascent sequences of length n other than the identity run, as
    {(case, (rep, max, ealm, asc, zero)): count}, counted layer by layer;
    case is the suffix case "S1".."S4" of decomp.classify."""
    check_size(n, "length")
    layout = _Layout(("rep", "zero"), n)
    fields = layout.reader(("rep", "zero"))

    def read(state, folded):
        asc, p, ealm, case = state
        rep, zero = fields(state, folded)
        return case, (rep, p, ealm, asc, zero)

    table = _count(_case_step, (0, 0, 0, ""), n, layout, read,
                   by_state=True)
    return {key: count for key, count in table.items() if key[0]}
