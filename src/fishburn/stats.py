"""Statistics on sequences and permutations.

Scalar statistics on an inversion sequence s of length n:

  asc    ascents, positions i < n with s_i < s_{i+1}
  nasc   non-ascents, n - 1 - asc
  rep    repeated entries, n minus the number of distinct values
  zero   entries equal to 0
  max    maximal entries, positions with s_i = i - 1
  rmin   right-to-left minima (the last position counts vacuously)

Each of asc/zero/max/rmin/nasc also has a set-valued form listing the
1-based positions, plus DIST, the positions holding the last occurrence of
each distinct positive value.

Marker statistics locate structure near the maximal entries or the zeros.
Maximals and zeros are indexed from 0, left to right; every other reported
position is 1-based.

  ealm   the entry immediately after the last maximal (ascent sequences;
         0 for the strictly increasing sequence, which has no such entry)
  mpair  the largest maximal index whose entry is repeated immediately
         after it (drop-by-one-avoiding sequences; 0 for the strictly
         increasing sequence)
  zpair  the largest zero index whose entry is followed immediately by a 1
         (ascent sequences; 0 for the all-zero sequence)
  mpos   locates the leftmost position l >= (mpair position + 2) holding
         l - 2: one more than the largest maximal index before it, or 0 if
         no such position exists
  zpos   the same with zeros and entries equal to 1

mpair (resp. zpair) is expected to exist for every non-increasing
(resp. not-all-zero) input; if that ever fails the statistic raises
DomainError rather than inventing a value.

The fused kernels seq_profile, perm_profile, seq_sets and perm_sets return
the tuples named by SEQ_PROFILE, PERM_PROFILE, SEQ_SETS and PERM_SETS in one
pass and do not validate: apply them only to enumerator output or to objects
that have just passed seqcore.is_member.  scalar_stats and set_stats validate,
then read a kernel, and perm_stats reads perm_sets; the tests compare both
with plain references.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import DomainError
from .seqcore import ClassId, Perm, Seq, is_ascent, is_inversion, is_t21


@dataclass(frozen=True)
class ScalarStats:
    asc: int
    rep: int
    zero: int
    max: int
    rmin: int
    nasc: int


@dataclass(frozen=True)
class SetStats:
    ASC: tuple
    DIST: tuple
    ZERO: tuple
    MAX: tuple
    RMIN: tuple
    NASC: tuple


@dataclass(frozen=True)
class PermStats:
    des: int
    ides: int
    iasc: int
    DES: tuple
    IDES: tuple
    LMAX: tuple
    LMIN: tuple
    RMAX: tuple


def as_dict(record) -> dict:
    """The fields of a ScalarStats, SetStats or PermStats in declaration
    order, each position tuple as a list."""
    values = ((f.name, getattr(record, f.name)) for f in fields(record))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


def _require_inversion(s) -> None:
    if not is_inversion(s):
        raise DomainError(f"not an inversion sequence: {tuple(s)!r}")


def maximal_positions(s) -> tuple:
    return tuple(i for i in range(1, len(s) + 1) if s[i - 1] == i - 1)


def zero_positions(s) -> tuple:
    return tuple(i for i in range(1, len(s) + 1) if s[i - 1] == 0)


def scalar_stats(s: Seq) -> ScalarStats:
    _require_inversion(s)
    profile = seq_profile(s)
    return ScalarStats(*profile, nasc=len(s) - 1 - profile[0])


def set_stats(s: Seq) -> SetStats:
    _require_inversion(s)
    return SetStats(*seq_sets(s))


def perm_stats(p: Perm) -> PermStats:
    des, ides, *extrema = perm_sets(p)
    return PermStats(len(des), len(ides), len(p) - 1 - len(ides), des, ides, *extrema)


SEQ_PROFILE = ("asc", "rep", "zero", "max", "rmin")
PERM_PROFILE = ("des", "ides", "lmax", "lmin", "rmax")
SEQ_SETS = ("ASC", "DIST", "ZERO", "MAX", "RMIN", "NASC")
PERM_SETS = ("DES", "IDES", "LMAX", "LMIN", "RMAX")


def seq_profile(s: Seq) -> tuple:
    """SEQ_PROFILE of a trusted inversion sequence."""
    n = len(s)
    asc = mx = rmin = 0
    low, nxt = n, -1
    for i in range(n - 1, -1, -1):  # from the right, for the minima
        v = s[i]
        if v == i:
            mx += 1
        if v < low:
            rmin += 1
            low = v
        if v < nxt:
            asc += 1
        nxt = v
    return (asc, n - len(set(s)), s.count(0), mx, rmin)


def perm_profile(p: Perm) -> tuple:
    """PERM_PROFILE of a trusted permutation; lmax, lmin and rmax count the
    positions of the corresponding set-valued statistics."""
    n = len(p)
    placed = [False] * (n + 2)
    des = ides = lmax = lmin = rmax = 0
    hi = prev = 0
    lo = top = n + 1  # top: least value with top..n all placed
    for v in p:
        if v < prev:
            des += 1
        if placed[v + 1]:  # v + 1 stands left of v: a descent of the inverse
            ides += 1
        if v > hi:
            lmax += 1
            hi = v
        if v < lo:
            lmin += 1
            lo = v
        placed[v] = True
        if v == top - 1:  # every larger value stands left of v
            rmax += 1
            top = v
            while placed[top - 1]:
                top -= 1
        prev = v
    return (des, ides, lmax, lmin, rmax)


def seq_sets(s: Seq) -> tuple:
    """SEQ_SETS of a trusted inversion sequence, read from the right."""
    n = len(s)
    asc, dist, zero, mx, rmin, nasc = sets = [], [], [], [], [], []
    seen, low, nxt = set(), n, n
    for i in range(n, 0, -1):
        v = s[i - 1]
        if v == 0:
            zero.append(i)
        elif v not in seen:
            dist.append(i)
            seen.add(v)
        if v == i - 1:
            mx.append(i)
        if v < low:
            rmin.append(i)
            low = v
        if i < n:
            (asc if v < nxt else nasc).append(i)
        nxt = v
    return tuple([tuple(positions[::-1]) for positions in sets])


def perm_sets(p: Perm) -> tuple:
    """PERM_SETS of a trusted permutation, in one pass as perm_profile."""
    n = len(p)
    placed = [False] * (n + 2)
    des, ides, lmax, lmin, rmax = [], [], [], [], []
    hi = prev = 0
    lo = top = n + 1  # top: least value with top..n all placed
    for i, v in enumerate(p, 1):
        if v < prev:
            des.append(i - 1)
        if placed[v + 1]:
            ides.append(i)
        if v > hi:
            lmax.append(i)
            hi = v
        if v < lo:
            lmin.append(i)
            lo = v
        placed[v] = True
        if v == top - 1:
            rmax.append(i)
            top = v
            while placed[top - 1]:
                top -= 1
        prev = v
    return (tuple(des), tuple(ides), tuple(lmax), tuple(lmin), tuple(rmax))


# marker -> the class it is defined on; callers read the marker function
# itself as getattr(stats, name) at each call, so rebound ones are used
MARKERS = {"ealm": ClassId.ASC, "zpair": ClassId.ASC, "zpos": ClassId.ASC,
           "mpair": ClassId.T21, "mpos": ClassId.T21}


def ealm(s: Seq) -> int:
    if not is_ascent(s):
        raise DomainError(f"ealm needs an ascent sequence, got {tuple(s)!r}")
    p = len(maximal_positions(s))
    if p == len(s):
        return 0
    return s[p]  # entry at 1-based position p + 1


def _pair_marker(s, anchors: tuple, rise: int, missing: str) -> int:
    """The largest index of an anchor whose entry is followed at once by
    that entry plus rise.  When every entry is an anchor none is, and the
    marker is 0; otherwise one must be, so only a sequence outside the
    class, which mpair and zpair refuse first, reaches the DomainError:

    - T21 (maximal anchors, rise 0): the entries before the first non-maximal
      position j are 0, 1, ..., j-2; the entry at j is at most j-2 and may
      not be one less than an earlier entry, so it is j-2, the maximal entry
      just before it.
    - ASC (zero anchors, rise 1): an all-zero prefix has no ascent, so the
      first nonzero entry is a 1, and the entry before it is a 0.
    """
    best = 0 if len(anchors) == len(s) else None
    for idx, k in enumerate(anchors):
        if k < len(s) and s[k] == s[k - 1] + rise:
            best = idx
    if best is None:
        raise DomainError(f"{missing} in {tuple(s)!r}")
    return best


def mpair(s: Seq) -> int:
    if not is_t21(s):
        raise DomainError(f"mpair needs a drop-by-one-avoiding sequence, got {tuple(s)!r}")
    return _pair_marker(s, maximal_positions(s), 0, "no paired maximal")


def zpair(s: Seq) -> int:
    if not is_ascent(s):
        raise DomainError(f"zpair needs an ascent sequence, got {tuple(s)!r}")
    return _pair_marker(s, zero_positions(s), 1, "no zero followed by 1")


def _pos_marker(s, anchors: tuple, pair_index: int, is_critical) -> int:
    start = anchors[pair_index] + 2
    crit = [l for l in range(start, len(s) + 1) if is_critical(l, s[l - 1])]
    if not crit:
        return 0
    leftmost = crit[0]
    m = max(idx for idx, k in enumerate(anchors) if k < leftmost)
    return m + 1


def mpos(s: Seq) -> int:
    j = mpair(s)
    return _pos_marker(s, maximal_positions(s), j, lambda l, v: v == l - 2)


def zpos(s: Seq) -> int:
    j = zpair(s)
    return _pos_marker(s, zero_positions(s), j, lambda l, v: v == 1)
