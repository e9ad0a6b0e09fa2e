"""Ground types and exhaustive enumeration for Fishburn-counted classes.

Two value types: Seq (a finite sequence of non-negative integers, reported
with 1-based positions) and Perm (a permutation of {1..n}).  On top of them,
membership predicates and lexicographic enumerators for eight classes:

  INV           inversion sequences, 0 <= s_i < i
  ASC           ascent sequences, s_1 = 0 and s_i <= asc(prefix) + 1
  T21           inversion sequences with no earlier entry equal to a later
                entry plus one
  B             inversion sequences where every non-ascent position either
                ends the run of maximal entries for good or bans the value
                i-1 from the suffix
  C             inversion sequences where a non-ascent at position i bans
                the value i from the suffix
  PERM_ALL      all permutations
  PERM_AVOID_A  permutations with no ascent pair followed (two or more
                positions later) by the value just below the ascent bottom
  PERM_AVOID_B  permutations with no ascent pair followed (two or more
                positions later) by the value just below the ascent top

All six restricted classes are counted by the Fishburn numbers
1, 2, 5, 15, 53, 217, 1014, ...

Enumeration is in lexicographic order and accepts a fixed prefix so callers
can partition the stream; an infeasible prefix yields an empty stream.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterator

from .errors import DomainError, ResourceLimitError, UsageError

# The size table, the one copy of how far each kind of work goes:
#   enumerate  the length ceiling of enumerate_class (its `limit` overrides it)
#   table      the length cap of harness.dist_table
#   series     the order cap of genfun's truncated series
# INV and the permutation classes take the lower "n!" entries: INV and
# PERM_ALL have n! members of length n.
CAPS = {"enumerate": 12, "enumerate n!": 10, "table": 12, "table n!": 9,
        "series": 12}


def cap(kind: str, class_id: ClassId | None = None) -> int:
    """The CAPS entry of kind for class_id, read at each call."""
    if class_id is ClassId.INV or (class_id is not None
                                   and class_id.is_permutation_class):
        kind += " n!"
    return CAPS[kind]


def check_size(value, what: str) -> int:
    """value, if it is a positive int (a bool is not); else UsageError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise UsageError(f"{what} must be a positive integer, got {value!r}")
    return value


class Seq(tuple):
    """Immutable sequence of non-negative integers."""

    def __new__(cls, values=()):
        vals = tuple(values)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise DomainError(f"sequence entries must be integers >= 0, got {v!r}")
        return tuple.__new__(cls, vals)

    @classmethod
    def _wrap(cls, vals: tuple) -> "Seq":
        # Trusted constructor for values produced by our own enumerators.
        return tuple.__new__(cls, vals)

    @classmethod
    def from_text(cls, text: str) -> "Seq":
        text = text.strip()
        if not text:
            return cls(())
        try:
            return cls(int(part) for part in text.split(","))
        except ValueError as exc:
            raise UsageError(f"cannot parse sequence from {text!r}") from exc

    def to_text(self) -> str:
        return ",".join(str(v) for v in self)

    def __repr__(self):
        return f"Seq({tuple(self)!r})"


class Perm(tuple):
    """Permutation of {1..n}, stored one-line."""

    def __new__(cls, values=()):
        vals = tuple(values)
        n = len(vals)
        if sorted(vals) != list(range(1, n + 1)):
            raise DomainError(f"not a permutation of 1..{n}: {vals!r}")
        return tuple.__new__(cls, vals)

    @classmethod
    def _wrap(cls, vals: tuple) -> "Perm":
        return tuple.__new__(cls, vals)

    @staticmethod
    def parse_word(text: str) -> tuple:
        """Positive integers written as a digit word or a comma list: a
        permutation or a prefix of one."""
        text = text.strip()
        try:
            vals = tuple(map(int, text.split(",") if "," in text else text))
            if all(v >= 1 for v in vals):
                return vals
        except ValueError:
            pass
        raise UsageError(f"cannot parse permutation from {text!r}")

    @classmethod
    def from_text(cls, text: str) -> "Perm":
        try:
            return cls(cls.parse_word(text))
        except DomainError as exc:
            raise UsageError(
                f"cannot parse permutation from {text.strip()!r}") from exc

    def to_text(self) -> str:
        if len(self) <= 9:
            return "".join(str(v) for v in self)
        return ",".join(str(v) for v in self)

    def __repr__(self):
        return f"Perm({tuple(self)!r})"


class ClassId(Enum):
    INV = "inv"
    ASC = "asc"
    T21 = "t21"
    B = "b"
    C = "c"
    PERM_ALL = "perm_all"
    PERM_AVOID_A = "perm_avoid_a"
    PERM_AVOID_B = "perm_avoid_b"

    @classmethod
    def from_name(cls, name: str) -> "ClassId":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise UsageError(f"unknown class {name!r}; expected one of: {valid}")

    @property
    def is_permutation_class(self) -> bool:
        return self in (ClassId.PERM_ALL, ClassId.PERM_AVOID_A, ClassId.PERM_AVOID_B)


def is_inversion(s) -> bool:
    return len(s) >= 1 and all(0 <= v < i for i, v in enumerate(s, start=1))


def is_ascent(s) -> bool:
    """True iff each entry is at most one more than the running ascent count."""
    if len(s) == 0 or s[0] != 0:
        return False
    asc = 0
    for i in range(1, len(s)):
        if not 0 <= s[i] <= asc + 1:
            return False
        if s[i] > s[i - 1]:
            asc += 1
    return True


def is_t21(s) -> bool:
    if not is_inversion(s):
        return False
    seen = set()
    for v in s:
        if v + 1 in seen:
            return False
        seen.add(v)
    return True


def is_b_class(s) -> bool:
    if not is_inversion(s):
        return False
    n = len(s)
    for i in range(1, n):  # 1-based non-ascent position i, entries s[i-1] >= s[i]
        if s[i - 1] < s[i]:
            continue
        if s[i - 1] == i - 1:
            # Once a maximal entry starts a non-ascent, no later entry may be maximal.
            if any(s[j] == j for j in range(i, n)):
                return False
        elif (i - 1) in s[i:]:
            return False
    return True


def is_c_class(s) -> bool:
    if not is_inversion(s):
        return False
    n = len(s)
    for i in range(1, n):
        if s[i - 1] >= s[i] and i in s[i:]:
            return False
    return True


def _contains_bivincular(p: Perm, top: int) -> bool:
    """Some ascent p_i < p_(i+1) is followed, two or more places later, by
    the value just below p_(i+top)."""
    pos = [0] * (len(p) + 1)  # pos[v] = 1-based position of value v
    for i, v in enumerate(p):
        pos[v] = i + 1
    for i in range(len(p) - 1):
        c = p[i + top]
        if p[i] < p[i + 1] and c >= 2 and pos[c - 1] >= i + 3:
            return True
    return False


def contains_bivincular_A(p: Perm) -> bool:
    """Ascent bottom's predecessor value occurs two or more places later."""
    return _contains_bivincular(p, 0)


def contains_bivincular_B(p: Perm) -> bool:
    """Ascent top's predecessor value occurs two or more places later."""
    return _contains_bivincular(p, 1)


_PREDICATES = {
    ClassId.INV: is_inversion,
    ClassId.ASC: is_ascent,
    ClassId.T21: is_t21,
    ClassId.B: is_b_class,
    ClassId.C: is_c_class,
    ClassId.PERM_ALL: lambda p: True,
    ClassId.PERM_AVOID_A: lambda p: not contains_bivincular_A(p),
    ClassId.PERM_AVOID_B: lambda p: not contains_bivincular_B(p),
}


def is_member(class_id: ClassId, obj) -> bool:
    """Membership test; the object kind must match the class kind."""
    if class_id.is_permutation_class:
        if not isinstance(obj, Perm):
            raise UsageError(f"{class_id.value} expects a Perm, got {type(obj).__name__}")
    elif isinstance(obj, Perm):
        raise UsageError(f"{class_id.value} expects a Seq, got a Perm")
    if len(obj) == 0:
        raise UsageError("membership is defined for non-empty objects")
    return _PREDICATES[class_id](obj)


def perm_transform(p: Perm, kind: str) -> Perm:
    """Return the inverse, the complement, or the complement of the inverse."""
    n = len(p)
    if kind == "inverse":
        out = [0] * n
        for i, v in enumerate(p):
            out[v - 1] = i + 1
        return Perm._wrap(tuple(out))
    if kind == "complement":
        return Perm._wrap(tuple(n + 1 - v for v in p))
    if kind == "inverse_then_complement":
        return perm_transform(perm_transform(p, "inverse"), "complement")
    raise UsageError(f"unknown transform {kind!r}")


# --- enumeration ---------------------------------------------------------
#
# One prefix extension generates every class but PERM_ALL.  Appending v at
# 0-based index m after the entry prev (0 at m = 0) needs v in range (0..m
# for sequences, 1..n for permutations) and the class's step rule
# step(state, m, prev, v) to return the next state, not None:
#   INV           any v; the state never changes
#   ASC           v <= asc + 1, with the ascent count as state (the range
#                 already forces the first entry to 0)
#   T21           v + 1 unused; the state is the bit set of used values
#   B             v not banned, and v < m once a maximal entry has begun a
#                 non-ascent; the state is (that flag, the bit set of
#                 banned values)
#   C             v not banned; the state is the bit set of banned values
#   PERM_AVOID_A  v unplaced and, at an ascent prev < v, prev = 1 or prev - 1
#                 placed; the state is the bit set of placed values
#   PERM_AVOID_B  v unplaced and, at an ascent prev < v, v - 1 placed
# The prefix goes through the same range and rule, so a dead or out-of-range
# prefix yields nothing.  The walk is depth-first over a stack of iterators,
# so a member is yielded from one frame, not through n nested ones.
#
# A step rule must stay a pure function of (state, m, prev, v), with a
# hashable state: each walk keeps the admissible (v, next state) pairs of
# every (state, m, prev) it meets in a dict of its own and reuses them, so
# most nodes cost one lookup instead of a call per candidate value.  The
# nodes at index n - 1 push no iterator: their leaves are emitted from the
# cached list in the parent's frame.  PERM_ALL has nothing to prune:
# itertools.permutations gives its tails.  counting.count_table relies on
# the same purity: it merges the prefixes that agree on (state, prev) and on
# the statistics it tracks, and counts them together.


def _inv_step(state, m, prev, v):
    return state


def _asc_step(asc, m, prev, v):
    if v > asc + 1:
        return None
    return asc + 1 if v > prev else asc


def _t21_step(used, m, prev, v):
    if used >> (v + 1) & 1:
        return None
    return used | 1 << v


def _b_step(state, m, prev, v):
    no_more_max, banned = state
    if banned >> v & 1 or (no_more_max and v == m):
        return None
    if m >= 1 and prev >= v:
        if prev == m - 1:
            return (True, banned)
        return (no_more_max, banned | 1 << (m - 1))
    return state


def _c_step(banned, m, prev, v):
    if banned >> v & 1:
        return None
    if m >= 1 and prev >= v:
        return banned | 1 << m
    return banned


def _avoid_a_step(placed, m, prev, v):
    if placed >> v & 1 or (1 < prev < v and not placed >> (prev - 1) & 1):
        return None
    return placed | 1 << v


def _avoid_b_step(placed, m, prev, v):
    if placed >> v & 1 or (0 < prev < v and not placed >> (v - 1) & 1):
        return None
    return placed | 1 << v


# class -> (step rule, initial state)
_RULES = {
    ClassId.INV: (_inv_step, 0),
    ClassId.ASC: (_asc_step, 0),
    ClassId.T21: (_t21_step, 0),
    ClassId.B: (_b_step, (False, 0)),
    ClassId.C: (_c_step, 0),
    ClassId.PERM_AVOID_A: (_avoid_a_step, 0),
    ClassId.PERM_AVOID_B: (_avoid_b_step, 0),
}


def _stream(n, prefix, step, state, perm):
    cls, lo = (Perm, 1) if perm else (Seq, 0)
    for m, v in enumerate(prefix):
        if not lo <= v <= (n if perm else m):
            return
        state = step(state, m, prefix[m - 1] if m else 0, v)
        if state is None:
            return
    vals = list(prefix)
    if len(vals) == n:
        yield tuple.__new__(cls, vals)
        return
    memo = {}  # (state, m, prev) -> admissible [(v, next state)]

    def children(state, m, prev):
        key = (state, m, prev)
        pairs = memo.get(key)
        if pairs is None:
            pairs = memo[key] = [
                (v, nxt) for v in range(lo, (n if perm else m) + 1)
                if (nxt := step(state, m, prev, v)) is not None]
        return pairs

    last = n - 1
    top = children(state, len(vals), vals[-1] if vals else 0)
    if len(vals) == last:
        for v, _ in top:
            vals.append(v)
            yield tuple.__new__(cls, vals)
            vals.pop()
        return
    # one iterator over the cached pairs per open index below n - 1
    stack = [iter(top)]
    while stack:
        for v, nxt in stack[-1]:
            vals.append(v)
            if len(vals) < last:
                stack.append(iter(children(nxt, len(vals), v)))
                break
            for w, _ in children(nxt, last, v):
                vals.append(w)
                yield tuple.__new__(cls, vals)
                vals.pop()
            vals.pop()
        else:
            stack.pop()
            if stack:
                vals.pop()


def _stream_perm(n, prefix):
    base = tuple(prefix)
    if len(set(base)) != len(base) or any(not 1 <= v <= n for v in base):
        return
    rest = sorted(set(range(1, n + 1)) - set(base))
    for tail in itertools.permutations(rest):
        yield Perm._wrap(base + tail)


def enumerate_class(class_id: ClassId, n: int, prefix=(), limit: int | None = None) -> Iterator:
    """Yield every length-n member once, lexicographically, extending prefix.

    `limit`, a positive int, overrides the default length ceiling, the
    "enumerate" entry of CAPS; exceeding it raises ResourceLimitError.
    """
    check_size(n, "length")
    ceiling = (cap("enumerate", class_id) if limit is None
               else check_size(limit, "limit"))
    if n > ceiling:
        raise ResourceLimitError(
            f"length {n} exceeds the enumeration limit {ceiling} for {class_id.value}")
    prefix = tuple(prefix)
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in prefix):
        raise UsageError(f"prefix must hold integers >= 0, got {prefix!r}")
    if len(prefix) > n:
        return iter(())
    if class_id is ClassId.PERM_ALL:
        return _stream_perm(n, prefix)
    step, state = _RULES[class_id]
    return _stream(n, prefix, step, state, class_id.is_permutation_class)
