"""Structural decompositions driving the recursive enumeration arguments.

Each scheme splits a sequence class into disjoint blocks keyed by a local
pattern around the last maximal entry, the paired maximal, or the paired
zero.  The maps in this module move sequences between blocks (or down to
length n-1) while shifting one tracked statistic by a known amount and
preserving the rest.  Every map here has an explicit inverse, and the pair
is exercised exhaustively by the test suite.

Conventions shared with :mod:`fishburn.stats`:

* positions are 1-based, so "position k" means ``s[k-1]`` in Python;
* ordinals of maximals/zeros are 0-based (the first maximal is the 0-th);
* an identity run has ``mpair == 0`` and an all-zero run has ``zpair == 0``.
"""

from __future__ import annotations

from .errors import UsageError, invariant, require
from .seqcore import ClassId, Seq
from .stats import (_asc_pass, _mpos, _t21_pass, _zero_pass, _zpos,
                    maximal_positions, zero_positions)


def _index_in(i, lo: int, hi: int) -> bool:
    # a side index or target ordinal: an int, and not a bool, in [lo, hi)
    return isinstance(i, int) and not isinstance(i, bool) and lo <= i < hi


def _flush_after(s, anchors: tuple, j: int) -> bool:
    # The anchor after the j-th is last or is immediately followed by another
    # anchor.  On maximals this is block F, on zeros block G.
    if j >= len(anchors) - 1:
        return False
    k1 = anchors[j + 1]
    return k1 == len(s) or k1 + 1 in anchors


# scheme -> the refusal of a sequence outside its class, which the pass
# follows with the sequence
_OUTSIDE = {"ASC_S": "not an ascent sequence:",
            "ASC_P": "not a nonempty ascent sequence:",
            "T_J": "drop-by-one pattern present:",
            "T_F": "not a nonempty drop-by-one-avoiding sequence:",
            "ASC_R": "not an ascent sequence:",
            "ASC_G": "not a nonempty ascent sequence:"}
SUBSET_SCHEMES = tuple(_OUTSIDE)


def _pass(s, scheme: str, refusal: str | None = None) -> tuple:
    """The one pass of stats that tests that s is in the class of scheme
    and reads its anchors: (maximal positions, mpair) of stats._t21_pass
    on T21, (number of maximals, zero positions, zpair) of stats._asc_pass
    on ASC.  The pass refuses a sequence outside the class with refusal, or
    with the scheme's own refusal, followed by the sequence."""
    if scheme[0] == "T":
        return _t21_pass(s, refusal or _OUTSIDE[scheme])
    return _asc_pass(s, refusal or _OUTSIDE[scheme])


def classify(s: Seq, scheme: str) -> str:
    """Return the block label of ``s`` under one of the subset schemes,
    off one pass that also tests membership (see _pass)."""
    if not (isinstance(scheme, str)
            and (scheme := scheme.strip().upper()) in _OUTSIDE):
        valid = ", ".join(SUBSET_SCHEMES)
        raise UsageError(
            f"unknown scheme {scheme!r}; expected one of: {valid}")
    return _label(s, scheme, _pass(s, scheme))


# scheme -> the statistic that equals the length exactly on the run that
# _label refuses under it: the run of maximals, or of zeros
GUARDS = {"ASC_S": "max", "T_J": "max", "ASC_R": "zero"}


def _label(s, scheme: str, found: tuple) -> str:
    """The block label of s under scheme, read off found, its pass."""
    n = len(s)
    if scheme == "T_F":
        return "F" if _flush_after(s, *found) else "Fc"
    if scheme == "T_J":
        require(n > len(found[0]), "identity run has no tail to classify:", s)
        return "J1" if _mpos(s, *found) == 0 else "J2"
    p, zeros, j = found
    if scheme == "ASC_S":
        require(n > p, "identity run has no tail to classify:", s)
        if n == p + 1:
            return "S1"
        if s[p] >= s[p + 1]:
            return "S2"
        return "S4" if p in s[p + 1:] else "S3"
    if scheme == "ASC_P":
        return "P" if s.count(p - 1) == 1 else "Pc"
    if scheme == "ASC_G":
        return "G" if _flush_after(s, zeros, j) else "Gc"
    require(n > len(zeros), "all-zero run has no nonzero entry:", s)
    return "R1" if _zpos(s, zeros, j) == 0 else "R2"


def _in_block(s, scheme: str, label: str, refusal: str) -> tuple:
    """The pass of s under scheme (see _pass); refuses s, with refusal,
    unless its block is label."""
    found = _pass(s, scheme, refusal)
    require(_label(s, scheme, found) == label, refusal, s)
    return found


def _marked(s, scheme: str) -> tuple:
    """(anchors, pair index, position marker) of s, on the maximals under a
    T scheme and on the zeros otherwise, off one pass (see _pass) that
    refuses s outside the class of scheme or on its run of anchors."""
    if scheme[0] == "T":
        anchors, j = _pass(s, scheme)
        pos, refusal = _mpos, "identity run excluded:"
    else:
        _, anchors, j = _pass(s, scheme)
        pos, refusal = _zpos, "all-zero run excluded:"
    require(len(s) > len(anchors), refusal, s)
    return anchors, j, pos(s, anchors, j)


# ---------------------------------------------------------------------------
# maps on the ascent-sequence side of the last maximal


def phi_P(s: Seq) -> Seq:
    """Drop the last maximal from a sequence whose top value is unrepeated.

    Bijection onto ascent sequences one shorter; lowers asc and max by one,
    keeps rep, zero and the entry after the last maximal.
    """
    q = _in_block(s, "ASC_P", "P", "top value repeats or not ascent:")[0]
    out = [v - (1 if v > q - 1 else 0)
           for idx, v in enumerate(s) if idx != q - 1]
    return Seq(out)


def phi_P_inv(t: Seq) -> Seq:
    p = _pass(t, "ASC_S")[0]
    out = list(t[:p]) + [p] + [v + (1 if v >= p else 0) for v in t[p:]]
    return Seq(out)


def xi_S4(s: Seq) -> tuple:
    """Promote the entry after the maximal prefix to a new maximal.

    Defined on the block whose tail ascends off the prefix and still uses
    the prefix-top value later on.  Returns the promoted sequence together
    with the displaced entry; asc and rep are untouched.
    """
    p = _in_block(s, "ASC_S", "S4", "not in block S4:")[0]
    i = s[p]
    out = list(s)
    out[p] = p
    return Seq(out), i


def xi_S4_inv(t: Seq, i: int) -> Seq:
    m = _in_block(t, "ASC_P", "Pc", "top value must repeat:")[0]
    require(_index_in(i, 0, t[m]),  # the top value repeats, so t[m] exists
            "index {!r} outside [0, ealm-1] for", t, i)
    out = list(t)
    out[m - 1] = i
    return Seq(out)


def s2_reduce(s: Seq) -> tuple:
    """Detach the entry after the maximal prefix when the tail steps down.

    The removed value rides along as the side index; asc and max survive,
    rep drops by one.
    """
    p = _in_block(s, "ASC_S", "S2", "not in block S2:")[0]
    i = s[p]
    out = [v for idx, v in enumerate(s) if idx != p]
    return Seq(out), i


def s2_insert(t: Seq, i: int) -> Seq:
    p = _pass(t, "ASC_S")[0]
    require(len(t) > p, "identity run cannot absorb an entry:", t)
    require(_index_in(i, t[p], p), "index {!r} outside [ealm, max-1] for",
            t, i)
    out = list(t)
    out.insert(p, i)
    return Seq(out)


def s3_reduce(s: Seq) -> tuple:
    """Remove the ascent entry after the maximal prefix, closing the gap.

    Values above the prefix top shift down by one; asc and rep both drop
    by one while max is preserved.
    """
    p = _in_block(s, "ASC_S", "S3", "not in block S3:")[0]
    i = s[p]
    out = [v - (1 if v > p else 0)
           for idx, v in enumerate(s) if idx != p]
    return Seq(out), i


def s3_insert(t: Seq, i: int) -> Seq:
    p = _pass(t, "ASC_P")[0]
    # ealm, the entry after the maximals, is 0 on the identity run
    require(_index_in(i, 0, t[p] if p < len(t) else 0),
            "index {!r} outside [0, ealm-1] for", t, i)
    out = list(t[:p]) + [i] + [t[p]] + [v + (1 if v >= p else 0)
                                        for v in t[p + 1:]]
    return Seq(out)


def _up(direction: str) -> bool:
    """Whether a shift steps up; refuses any direction but up or down."""
    if direction not in ("up", "down"):
        raise UsageError(
            f"direction must be 'up' or 'down', got {direction!r}")
    return direction == "up"


def ealm_shift(s: Seq, direction: str) -> Seq:
    """Step the entry after the last maximal up or down by one.

    Works inside the union of blocks S1, S2, S3 and keeps rep and max; a
    renormalisation of values above the prefix top fires exactly when the
    moved entry collides with its right neighbour.
    """
    found = _pass(s, "ASC_S")
    require(_label(s, "ASC_S", found) != "S4", "block S4 is out of range:", s)
    p = found[0]
    i = s[p]
    out = list(s)
    if _up(direction):
        require(i < p - 1, "entry already at top of range:", s)
        out[p] = i + 1
        if len(s) > p + 1 and s[p + 1] == i + 1:
            out = [v - 1 if v > p else v for v in out]
    else:
        require(i >= 1, "entry already zero:", s)
        out[p] = i - 1
        if len(s) > p + 1 and s[p + 1] == i:
            out = [v + 1 if v >= p else v for v in out]
    return Seq(out)


# ---------------------------------------------------------------------------
# maps around the paired maximal


def psi_F(s: Seq) -> Seq:
    """Erase the maximal after the paired one when nothing separates them.

    Bijection from block F onto sequences one shorter; max drops by one,
    rep and the paired-maximal ordinal survive.
    """
    anchors, j = _in_block(s, "T_F", "F", "not in block F:")
    k1 = anchors[j + 1]
    if k1 == len(s):
        return Seq(s[:-1])
    invariant(s[k1] == k1)
    out = [v - (1 if v >= k1 else 0)
           for idx, v in enumerate(s) if idx != k1]
    return Seq(out)


def psi_F_inv(t: Seq) -> Seq:
    anchors, j = _pass(t, "T_F")
    if len(anchors) == j + 1:
        return Seq(t + (len(t),))
    k = anchors[j + 1]
    # After position k a value k-1 can only be a shifted-down k: keeping the
    # original k-1 there would have put it right after the removed maximal k,
    # forming the forbidden drop-by-one pattern.
    out = list(t[:k]) + [k] + [v + (1 if v >= k - 1 else 0) for v in t[k:]]
    return Seq(out)


def mpair_shift(s: Seq, direction: str, _trace=None) -> Seq:
    """Move the paired-maximal ordinal one step up or down inside block J1.

    rep and max are preserved.  The moves are the steps of the walk
    :func:`vartheta`: up rewinds one step (the flush one inside block F, the
    apart one outside it); down, from paired ordinal i, takes the flush step
    when maximals i-1 and i are adjacent and the apart step otherwise.
    """
    kp, i, pos = _marked(s, "T_J")
    require(pos == 0, "critical maximal present:", s)
    if _up(direction):
        require(i < len(kp) - 1, "paired maximal already next to top:", s)
        if _flush_after(s, kp, i):
            label, out = "flush", _undo_M1(list(s), kp, i)
        else:
            label, out = "separated", _undo_M2(list(s), kp, i)
    else:
        require(i >= 1, "paired maximal already first:", s)
        if kp[i] == kp[i - 1] + 1:
            label, out = "undo_flush", _M1(list(s), kp, i)
        else:
            label, out = "undo_separated", _M2(list(s), kp, i)
    if _trace is not None:
        _trace.append((label, Seq(out)))
    return Seq(out)


# Each step of the walks takes t, its anchors (maximal or zero positions)
# and an ordinal: the pair index for a first or a rewind step, c otherwise.

def _M0(t: list, kp, j: int) -> list:
    # Detach the paired maximal and park its partner next to the previous
    # maximal; lowers the paired ordinal by one and frees a critical slot.
    out = list(t)
    popped = out.pop(kp[j] - 1)
    invariant(popped == kp[j] - 1)
    out.insert(kp[j - 1], kp[j - 1] - 1)
    return out

def _M1(t: list, kp, c: int) -> list:
    # Flush case: maximals c-1 and c are adjacent.  Dissolve maximal c and
    # re-pair ordinal c-1, renormalising the values in between.
    p = len(kp)
    x_c = kp[c] - 1
    out = list(t)
    popped = out.pop(kp[c] - 1)
    invariant(popped == x_c)
    if c + 1 <= p - 1:
        x = kp[c + 1] - 1
        out = [v - 1 if x_c <= v < x else v for v in out]
        out.insert(out.index(x), x - 1)
    else:
        top = len(t) - 1
        out = [v - 1 if v >= x_c else v for v in out]
        out.append(top)
    return out

def _M2(t: list, kp, c: int) -> list:
    # Separated case: swap the neighbours of maximal c, drop the leftmost
    # copy of its value and re-pair ordinal c-1.
    kc = kp[c]
    out = list(t)
    out[kc - 2], out[kc] = out[kc], out[kc - 2]
    out.remove(kc - 1)
    prev = kp[c - 1] - 1
    out.insert(out.index(prev) + 1, prev)
    return out

def _undo_M0(t: list, kp, c: int) -> list:
    crit = [l for l in range(kp[c] + 2, len(t) + 1) if t[l - 1] == l - 2]
    invariant(crit, "no critical maximal to restore")
    lstar = crit[0]
    out = list(t)
    popped = out.pop(kp[c])
    invariant(popped == kp[c] - 1)
    out.insert(lstar - 2, lstar - 2)
    return out

def _undo_M1(t: list, kp, c1: int) -> list:
    q = kp[c1 + 1]
    w = kp[c1] - 1
    out = list(t)
    if q == len(t):
        popped = out.pop()
        invariant(popped == len(t) - 1)
        out = [v + 1 if idx >= kp[c1] and v >= w else v
               for idx, v in enumerate(out)]
    else:
        invariant(kp[c1 + 2] == q + 1)
        popped = out.pop(q - 1)
        invariant(popped == q - 1)
        out = [v + 1 if idx >= kp[c1] and w <= v <= q - 2 else v
               for idx, v in enumerate(out)]
    out.insert(kp[c1], w + 1)
    return out

def _undo_M2(t: list, kp, c1: int) -> list:
    K = kp[c1 + 1]
    out = list(t)
    popped = out.pop(kp[c1])
    invariant(popped == kp[c1] - 1)
    out.insert(K - 2, K - 1)
    out[K - 2], out[K] = out[K], out[K - 2]
    return out

# The walks vartheta (on maximals) and theta_R (on zeros) share one descent
# and one rewind.  The descent takes the first step off the pair at ordinal
# j, then moves the pair from ordinal c to c - 1 until it reaches i: by the
# flush step when anchors c - 1 and c are adjacent, by the apart step
# otherwise.  The rewind undoes one step at a time: the flush step inside
# the block (F or G), the first step once the position marker is one past
# the pair marker, the apart step otherwise.  Each step makes one read:
# the first of either walk takes the (anchors, pair index) of its wrapper's
# guard pass, a later descent step a positions scan, a later rewind step one
# validating pass of stats.  The wrappers pass these readers and the steps
# (first, flush, apart) by name at call time, so that patched and traced
# bindings are the ones run.


def _descend(s, i, found, anchors, steps, tag, _trace):
    at, j = found
    # the pair marker is mpair on the maximals (tag M), zpair on the zeros
    require(_index_in(i, 0, j), "index {!r} outside [0, {}pair-1] for", s, i,
            tag.lower())
    first, flush, apart = steps
    cur = first(list(s), at, j)
    if _trace is not None:
        _trace.append((tag + "0", Seq(cur)))
    for c in range(j - 1, i, -1):
        at = anchors(cur)
        if at[c - 1] + 1 == at[c]:
            cur, label = flush(cur, at, c), tag + "1"
        else:
            cur, label = apart(cur, at, c), tag + "2"
        if _trace is not None:
            _trace.append((label, Seq(cur)))
    return Seq(cur)


def _rewind(s, found, read, pos, steps, tag, _trace):
    undo_first, undo_flush, undo_apart = steps
    i = found[1]
    cur = list(s)
    for _ in range(len(s) + 1):
        at, j = found
        if _flush_after(cur, at, j):
            cur, label = undo_flush(cur, at, j), "undo_" + tag + "1"
        elif pos(cur, at, j) == j + 1:
            cur = undo_first(cur, at, j)
            if _trace is not None:
                _trace.append(("undo_" + tag + "0", Seq(cur)))
            return Seq(cur), i
        else:
            cur, label = undo_apart(cur, at, j), "undo_" + tag + "2"
        if _trace is not None:
            _trace.append((label, Seq(cur)))
        found = read(cur)
    anchor = "maximal" if tag == "M" else "zero"
    raise AssertionError(f"paired-{anchor} rewind did not terminate: {tuple(s)!r}")


def vartheta(s: Seq, i: int, _trace=None) -> Seq:
    """Walk the paired maximal down to ordinal ``i``, creating a critical slot.

    Defined outside block F for any ``i`` below the current paired ordinal;
    the result lands in block J2 with its paired ordinal equal to ``i``.
    rep is preserved and max drops by one.
    """
    found = _pass(s, "T_F")
    require(_label(s, "T_F", found) == "Fc", "block F is out of range:", s)
    return _descend(s, i, found, maximal_positions, (_M0, _M1, _M2), "M",
                    _trace)


def vartheta_inv(s: Seq, _trace=None) -> tuple:
    """Rewind :func:`vartheta`; returns the source and the target ordinal."""
    kp, j, pos = _marked(s, "T_F")
    require(pos != 0, "no critical maximal:", s)
    return _rewind(s, (kp, j), _t21_pass, _mpos,
                   (_undo_M0, _undo_M1, _undo_M2), "M", _trace)


# ---------------------------------------------------------------------------
# maps around the paired zero


def phi_G(s: Seq) -> Seq:
    """Erase the zero after the paired one when nothing separates them.

    Bijection from block G onto ascent sequences one shorter; zero drops by
    one, asc and the paired-zero ordinal survive.
    """
    _, zp, j = _in_block(s, "ASC_G", "G", "not in block G:")
    out = list(s)
    popped = out.pop(zp[j + 1] - 1)
    invariant(popped == 0)
    return Seq(out)

def phi_G_inv(t: Seq) -> Seq:
    _, zp, j = _pass(t, "ASC_G")
    out = list(t)
    if len(zp) == j + 1:
        out.append(0)
    else:
        out.insert(zp[j + 1] - 1, 0)
    return Seq(out)

def zpair_shift(s: Seq, direction: str) -> Seq:
    """Move the paired-zero ordinal one step up or down inside block R1.

    asc and zero are preserved; the trailing 1 travels from the old paired
    zero to the new one, with the entries in between renormalised.
    """
    zp, m, pos = _marked(s, "ASC_R")
    require(pos == 0, "critical one present:", s)
    out = list(s)
    if _up(direction):
        require(m < len(zp) - 1, "paired zero already next to top:", s)
        ki, ki1 = zp[m], zp[m + 1]
        invariant(s[ki] == 1)
        del out[ki]
        for idx in range(ki, ki1 - 2):
            out[idx] -= 1
        out.insert(ki1 - 1, 1)
        return Seq(out)
    require(m >= 1, "paired zero already first:", s)
    km = zp[m]
    invariant(s[km] == 1)
    del out[km]
    for idx in range(zp[m - 1], km - 1):
        out[idx] += 1
    out.insert(zp[m - 1], 1)
    return Seq(out)

def _Z0(t: list, zp, j: int) -> list:
    out = list(t)
    for idx in range(zp[j - 1], zp[j] - 1):
        out[idx] += 1
    popped = out.pop(zp[j] - 1)
    invariant(popped == 0)
    out.insert(zp[j - 1], 1)
    return out

def _Z1(t: list, zp, c: int) -> list:
    # Flush case: zeros c-1 and c are adjacent.  Move the c-th zero just
    # past the next zero (or to the end when there is none).
    out = list(t)
    popped = out.pop(zp[c] - 1)
    invariant(popped == 0)
    if c + 1 <= len(zp) - 1:
        out.insert(zp[c + 1] - 1, 0)
    else:
        out.append(0)
    return out

def _Z2(t: list, zp, c: int) -> list:
    # Separated case: lift the entries between zeros c-1 and c, then either
    # move the trailing 1 or the whole zero-one block next to zero c-1.
    out = list(t)
    for idx in range(zp[c - 1], zp[c] - 1):
        out[idx] += 1
    after = t[zp[c] + 1] if zp[c] + 1 < len(t) else None
    if after is not None and after >= 2:
        popped = out.pop(zp[c])
        invariant(popped == 1)
        out.insert(zp[c - 1], 1)
    else:
        block = out[zp[c] - 1:zp[c] + 1]
        invariant(block == [0, 1])
        del out[zp[c] - 1:zp[c] + 1]
        out[zp[c - 1] - 1:zp[c - 1] - 1] = [0, 1]
    return out

def theta_R(s: Seq, i: int, _trace=None) -> Seq:
    """Walk the paired zero down to ordinal ``i``, creating a critical 1.

    Defined outside block G for any ``i`` below the current paired ordinal;
    the result lands in block R2 with its paired ordinal equal to ``i``.
    asc is preserved and zero drops by one.
    """
    found = _pass(s, "ASC_G")
    require(_label(s, "ASC_G", found) == "Gc", "block G is out of range:", s)
    return _descend(s, i, found[1:], zero_positions, (_Z0, _Z1, _Z2), "Z",
                    _trace)

def _undo_Z0(t: list, zp, c: int) -> list:
    crit = [l for l in range(zp[c] + 2, len(t) + 1) if t[l - 1] == 1]
    invariant(crit, "no critical one to restore")
    lstar = crit[0]
    out = list(t)
    popped = out.pop(zp[c])
    invariant(popped == 1)
    for idx in range(zp[c], lstar - 2):
        out[idx] -= 1
    out.insert(lstar - 2, 0)
    return out

def _undo_Z1(t: list, zp, c: int) -> list:
    out = list(t)
    if zp[c + 1] == len(t):
        popped = out.pop()
        invariant(popped == 0)
    else:
        invariant(zp[c + 2] == zp[c + 1] + 1)
        popped = out.pop(zp[c + 2] - 1)
        invariant(popped == 0)
    out.insert(zp[c], 0)
    return out

def _undo_Z2(t: list, zp, c: int) -> list:
    out = list(t)
    after = t[zp[c] + 1] if zp[c] + 1 < len(t) else None
    if after is not None and after >= 2:
        popped = out.pop(zp[c])
        invariant(popped == 1)
        for idx in range(zp[c], zp[c + 1] - 2):
            out[idx] -= 1
        out.insert(zp[c + 1] - 1, 1)
    elif after == 0:
        block = out[zp[c] - 1:zp[c] + 1]
        invariant(block == [0, 1])
        del out[zp[c] - 1:zp[c] + 1]
        q = len(out) + 1
        for idx in range(zp[c], len(out)):
            if out[idx] <= 1:
                q = idx + 1
                break
        for idx in range(zp[c], q - 1):
            out[idx] -= 1
        out[q - 1:q - 1] = [0, 1]
    else:
        raise AssertionError(f"malformed paired-zero neighbourhood: {t!r}")
    return out

def theta_R_inv(s: Seq, _trace=None) -> tuple:
    """Rewind :func:`theta_R`; returns the source and the target ordinal."""
    zp, j, pos = _marked(s, "ASC_G")
    require(pos != 0, "no critical one:", s)
    return _rewind(s, (zp, j), _zero_pass, _zpos,
                   (_undo_Z0, _undo_Z1, _undo_Z2), "Z", _trace)


# name -> (shape, forward, inverse, class, domain block, codomain,
# side-index range, statistic deltas, marker) of every length-reducing map:
# how the pair is called, and the lemma it proves.  The shape fixes the
# calls:
#   drop    forward(s) -> t and inverse(t) -> s, with t one shorter;
#   reduce  forward(s) -> (t, i) and inverse(t, i) -> s;
#   shift   forward(s, "up" | "down"); a shift is its own inverse, run in the
#           other direction;
#   walk    forward(s, i) -> t and inverse(t) -> (s, i).
# A block is (scheme, *labels) of classify.  A codomain is (length drop,
# block or None for the whole class, its description); a shift has none.
# A side-index range (lo, hi) is read off the sequence the index is paired
# with; each bound is 0, a scalar statistic or a marker.  Each delta is the
# input's statistic less its image's, and the marker is a marker of stats.
MAPS = {
    "phi_P": ("drop", phi_P, phi_P_inv, ClassId.ASC, ("ASC_P", "P"),
              (1, None, "an ascent sequence of length n-1"), None,
              {"asc": 1, "max": 1, "rep": 0, "zero": 0}, "ealm"),
    "xi_S4": ("reduce", xi_S4, xi_S4_inv, ClassId.ASC, ("ASC_S", "S4"),
              (0, ("ASC_P", "Pc"),
               "in the complement of the single-submaximal subset"),
              (0, "ealm"), {"asc": 0, "rep": 0, "max": -1}, "ealm"),
    "s2_reduce": ("reduce", s2_reduce, s2_insert, ClassId.ASC,
                  ("ASC_S", "S2"),
                  (1, ("ASC_S", "S1", "S2", "S3", "S4"),
                   "a shorter non-identity-run ascent sequence"),
                  ("ealm", "max"), {"asc": 0, "max": 0, "rep": 1}, "ealm"),
    "s3_reduce": ("reduce", s3_reduce, s3_insert, ClassId.ASC,
                  ("ASC_S", "S3"),
                  (1, None, "an ascent sequence of length n-1"),
                  (0, "ealm"), {"asc": 1, "max": 0, "rep": 1}, "ealm"),
    "ealm_shift": ("shift", ealm_shift, ealm_shift, ClassId.ASC,
                   ("ASC_S", "S1", "S2", "S3"), None,
                   (0, "max"), {"rep": 0, "max": 0}, "ealm"),
    "psi_F": ("drop", psi_F, psi_F_inv, ClassId.T21, ("T_F", "F"),
              (1, None, "a (2-1)-avoiding sequence of length n-1"), None,
              {"max": 1, "rep": 0}, "mpair"),
    "mpair_shift": ("shift", mpair_shift, mpair_shift, ClassId.T21,
                    ("T_J", "J1"), None,
                    (0, "max"), {"rep": 0, "max": 0}, "mpair"),
    "vartheta": ("walk", vartheta, vartheta_inv, ClassId.T21, ("T_F", "Fc"),
                 (0, ("T_J", "J2"), "the displaced subset"),
                 (0, "mpair"), {"rep": 0, "max": 1}, "mpair"),
    "phi_G": ("drop", phi_G, phi_G_inv, ClassId.ASC, ("ASC_G", "G"),
              (1, None, "an ascent sequence of length n-1"), None,
              {"zero": 1, "asc": 0}, "zpair"),
    "zpair_shift": ("shift", zpair_shift, zpair_shift, ClassId.ASC,
                    ("ASC_R", "R1"), None,
                    (0, "zero"), {"asc": 0, "zero": 0}, "zpair"),
    "theta_R": ("walk", theta_R, theta_R_inv, ClassId.ASC, ("ASC_G", "Gc"),
                (0, ("ASC_R", "R2"), "the displaced subset"),
                (0, "zpair"), {"asc": 0, "zero": 1}, "zpair"),
}
