"""Statistic tables counted over the step rules, with no enumeration.

A member of a sequence class in seqcore._RULES grows one entry at a time,
and the step rule sees only (state, m, prev, v).  Prefixes that agree on the
rule state, on their last entry and on the running fields that the requested
statistics read have the same extensions, with the same effect on those
statistics, so one count stands for all of them.  A layer maps each key
(state, prev, fields) to the number of prefixes it stands for, and the next
layer extends every key by each admissible entry: a transfer-matrix count
(Flajolet and Sedgewick, Analytic Combinatorics, V.6) over the recursive
construction of Bousquet-Mélou, Claesson, Dukes and Kitaev (JCTA 2010).

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

The ealm and gap rules hold on the ascent sequences, whose maximals are the
initial run 0, 1, ..., p-1: prev = m - 1 only while the prefix is that run,
so ealm is set once, to s[p], and stays 0 on the run itself.  So the markers
are counted over their home class of stats.MARKERS only; mpair, mpos and
zpos have no tracker, and every other marker table is enumerated.

The fields a request needs are packed side by side into one int, so that
the counts and bit sets of one entry move with one AND, one OR and one ADD.

One layer loop, _count, serves two requests.  count_table reads the
trackers of a profile or marker table.  count_cases reads the five-marker
profile (rep, max, ealm, asc, zero) of each suffix case S1..S4 of the ascent
sequences, the populations of the case identities in genfun: its step rule
is the ASC rule with the fields that decide the case (the run length p =
max, ealm = s[p] and two flags, each set once) carried in the rule state.
"""

from __future__ import annotations

from collections import Counter

from . import stats
from .errors import UsageError
from .seqcore import ClassId, _RULES, _asc_step, check_size

# tracker -> (the field it reads, whether the statistic is the size of that
# field as a set, whether it is n minus the reading, and the field whose
# reading is subtracted from it, if any)
TRACKERS = {
    "asc": ("asc", False, False, None), "rep": ("used", True, True, None),
    "zero": ("zero", False, False, None), "max": ("max", False, False, None),
    "rmin": ("rmin", True, False, None), "ealm": ("ealm", False, False, None),
    "zpair": ("zero", False, False, "gap"),
}


def counted(class_id: ClassId, names: tuple) -> bool:
    """Whether count_table serves the table of names over class_id; a
    marker is served over its home class only."""
    return (class_id in _RULES and not class_id.is_permutation_class
            and bool(names)
            and all(name in TRACKERS
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
        """(rule state, packed fields) -> the tuple of the values of names,
        which the fields alone decide."""
        plan, less = [], []
        for name in names:
            field, is_set, from_n, minus = TRACKERS[name]
            sign, const = (-1, self.n) if from_n else (1, 0)
            plan.append((self.at[field], self.mask[field], is_set, sign,
                         const))
            less.append((self.at.get(minus, 0), self.mask.get(minus, 0)))

        def read(state, packed):
            return tuple([
                const + sign * ((packed >> at & mask).bit_count() if is_set
                                else packed >> at & mask)
                for at, mask, is_set, sign, const in plan])
        if not any(mask for _, mask in less):
            return read

        # a subtracted field costs the profile tables nothing
        def read_less(state, packed):
            return tuple([value - (packed >> at & mask) for value, (at, mask)
                          in zip(read(state, packed), less)])
        return read_less


def _extensions(step, layout, m, last):
    """(state, prev) -> the admissible entries v at index m after prev, as
    (v, next state, ops) or, at the last index, as (next state, ops).
    Memoised for the layer, as the step rule is a pure function of (state,
    m, prev, v); the ops of each (prev, v) are computed once and shared."""
    memo, ops = {}, {}

    def entry_ops(prev, v):
        found = ops.get((prev, v))
        if found is None:
            found = ops[prev, v] = layout.ops(m, prev, v)
        return found

    def extend(state, prev):
        found = memo.get((state, prev))
        if found is None:
            found = memo[state, prev] = tuple(
                (nxt, entry_ops(prev, v)) if last
                else (v, nxt, entry_ops(prev, v))
                for v in range(m + 1)
                if (nxt := step(state, m, prev, v)) is not None)
        return found
    return extend


def _count(step, state, n, layout, read) -> Counter:
    """{read(final state, packed fields): count} over the length-n members
    of the class that the step rule grows from state."""
    layer = {(state, 0, 0): 1}
    for m in range(n - 2):
        extend = _extensions(step, layout, m, False)
        grown = {}
        for (state, prev, fields), count in layer.items():
            for v, nxt, (keep, put, add) in extend(state, prev):
                key = nxt, v, (fields & keep | put) + add
                grown[key] = grown.get(key, 0) + count
        layer = grown
    # The last two entries (one when n = 1) of each key go straight into the
    # table, so the two widest layers are never held.
    last = _extensions(step, layout, n - 1, True)
    table = Counter()

    def finish(state, prev, fields, count):
        for nxt, (keep, put, add) in last(state, prev):
            table[read(nxt, (fields & keep | put) + add)] += count

    if n == 1:
        finish(state, 0, 0, 1)
        return table
    extend = _extensions(step, layout, n - 2, False)
    for (state, prev, fields), count in layer.items():
        for v, nxt, (keep, put, add) in extend(state, prev):
            finish(nxt, v, (fields & keep | put) + add, count)
    return table


def count_table(class_id: ClassId, n: int, names: tuple) -> dict:
    """The joint distribution of names over the members of class_id of
    length n, as {tuple of values: count}, counted layer by layer."""
    check_size(n, "length")
    names = tuple(names)
    if not counted(class_id, names):
        raise UsageError(
            f"no step-rule count of ({', '.join(names)}) over "
            f"{class_id.name}; sequence classes with trackers: "
            f"{', '.join(TRACKERS)} (a marker over its home class only)")
    step, state = _RULES[class_id]
    layout = _Layout(names, n)
    return dict(_count(step, state, n, layout, layout.reader(names)))


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

    def read(state, packed):
        asc, p, ealm, case = state
        rep, zero = fields(state, packed)
        return case, (rep, p, ealm, asc, zero)

    table = _count(_case_step, (0, 0, 0, ""), n, layout, read)
    return {key: count for key, count in table.items() if key[0]}
