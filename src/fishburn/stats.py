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

mpair (resp. zpair) exists for every member that is not the increasing
(resp. all-zero) sequence; the pass that reads it checks this with an
errors.invariant, which stays active under python -O, rather than
inventing a value.

The fused kernels seq_profile, perm_profile, seq_sets and perm_sets return
the tuples named by SEQ_PROFILE, PERM_PROFILE, SEQ_SETS and PERM_SETS in one
pass and do not validate: apply them only to enumerator output or to objects
that have just passed seqcore.is_member.  scalar_stats and set_stats validate,
then return a kernel's values in a dict keyed by SEQ_SCALARS (SEQ_PROFILE
and nasc) or SEQ_SETS; perm_stats keys des, ides and iasc, then perm_sets
by PERM_SETS.  The CLI merges these dicts, and the tests compare them with
plain references.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import DomainError, invariant, require
from .seqcore import ClassId, Perm, Seq, is_inversion


def maximal_positions(s) -> tuple:
    return tuple([i for i, v in enumerate(s, 1) if v == i - 1])


def zero_positions(s) -> tuple:
    return tuple([i for i, v in enumerate(s, 1) if v == 0])


SEQ_PROFILE = ("asc", "rep", "zero", "max", "rmin")
SEQ_SCALARS = (*SEQ_PROFILE, "nasc")
PERM_PROFILE = ("des", "ides", "lmax", "lmin", "rmax")
PERM_SCALARS = ("des", "ides", "iasc", "lmax", "lmin", "rmax")
# scalars read off a profile entry x of a length-n object as n - 1 - x
DERIVED = {"nasc": "asc", "iasc": "ides"}
SEQ_SETS = ("ASC", "DIST", "ZERO", "MAX", "RMIN", "NASC")
PERM_SETS = ("DES", "IDES", "LMAX", "LMIN", "RMAX")


def scalar_stats(s: Seq) -> dict:
    require(is_inversion(s), "not an inversion sequence:", s)
    profile = seq_profile(s)
    return dict(zip(SEQ_SCALARS, (*profile, len(s) - 1 - profile[0])))


def set_stats(s: Seq) -> dict:
    require(is_inversion(s), "not an inversion sequence:", s)
    return dict(zip(SEQ_SETS, seq_sets(s)))


def perm_stats(p: Perm) -> dict:
    sets = perm_sets(p)
    des, ides = len(sets[0]), len(sets[1])
    return {"des": des, "ides": ides, "iasc": len(p) - 1 - ides,
            **dict(zip(PERM_SETS, sets))}


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


def _t21_pass(s, refusal="mpair needs a drop-by-one-avoiding sequence, got"):
    """(maximal positions, mpair) of s, in one pass from the left that also
    tests that s is in T21: each entry v at 0-based index i has
    0 <= v <= i, and v + 1 is not an earlier entry.  A sequence outside T21
    is refused with refusal, followed by s."""
    anchors, pair, seen = [], None, 0  # seen: bit set of the earlier entries
    for i, v in enumerate(s):
        if not 0 <= v <= i or seen >> (v + 1) & 1:
            break
        if v == i:
            anchors.append(i + 1)
        elif v == i - 1 and anchors[-1] == i:  # the maximal before repeats
            pair = len(anchors) - 1
        seen |= 1 << v
    else:
        if s:
            if pair is None:
                # Only the increasing sequence: the entries before the first
                # non-maximal position j are 0, 1, ..., j-2, and the entry
                # at j, at most j-2 and not one less than an earlier entry,
                # is j-2, the maximal entry just before it.
                invariant(len(anchors) == len(s), "no paired maximal")
                pair = 0
            return anchors, pair
    raise DomainError(f"{refusal} {tuple(s)!r}")


def _asc_pass(s, refusal: str) -> tuple:
    """(number of maximals, zero positions, zpair) of s, in one pass from
    the left that also tests that s is an ascent sequence: each entry is at
    least 0 and at most one more than the ascents before it, so the first
    is 0.  A sequence outside ASC is refused with refusal, followed by s."""
    # asc and prev start at -1, so the first entry must be 0 and leaves asc 0
    p, zeros, pair, asc, prev = 0, [], None, -1, -1
    for i, v in enumerate(s):
        if not 0 <= v <= asc + 1:
            break
        if v == i:
            p += 1
        if v == 0:
            zeros.append(i + 1)
        elif v == 1 and prev == 0:
            pair = len(zeros) - 1
        if v > prev:
            asc += 1
        prev = v
    else:
        if s:
            if pair is None:
                # Only the all-zero sequence: an all-zero prefix has no
                # ascent, so the first nonzero entry is a 1 after a 0.
                invariant(len(zeros) == len(s), "no zero followed by 1")
                pair = 0
            return p, zeros, pair
    raise DomainError(f"{refusal} {tuple(s)!r}")


def _zero_pass(s) -> tuple:
    """(zero positions, zpair) of s."""
    return _asc_pass(s, "zpair needs an ascent sequence, got")[1:]


def ealm(s: Seq) -> int:
    # the maximals form the identity prefix
    p = _asc_pass(s, "ealm needs an ascent sequence, got")[0]
    return 0 if p == len(s) else s[p]  # the entry at 1-based position p + 1


def mpair(s: Seq) -> int:
    return _t21_pass(s)[1]


def zpair(s: Seq) -> int:
    return _zero_pass(s)[1]


# the position markers, off the anchors and the pair index of one pass:
# bisect counts the anchors before the leftmost critical position l, which
# is one more than the largest index of one

def _mpos(s, anchors: list, j: int) -> int:
    for l in range(anchors[j] + 2, len(s) + 1):
        if s[l - 1] == l - 2:
            return bisect_left(anchors, l)
    return 0


def _zpos(s, zeros: list, j: int) -> int:
    for l in range(zeros[j] + 2, len(s) + 1):
        if s[l - 1] == 1:
            return bisect_left(zeros, l)
    return 0


def mpos(s: Seq) -> int:
    return _mpos(s, *_t21_pass(s))


def zpos(s: Seq) -> int:
    return _zpos(s, *_zero_pass(s))
