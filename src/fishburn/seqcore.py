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

# Default enumeration ceilings; callers may raise them explicitly.
DEFAULT_SEQ_LIMIT = 12
DEFAULT_PERM_LIMIT = 10


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

    @classmethod
    def from_text(cls, text: str) -> "Perm":
        text = text.strip()
        try:
            if "," in text:
                return cls(int(part) for part in text.split(","))
            return cls(int(ch) for ch in text)
        except (ValueError, DomainError) as exc:
            raise UsageError(f"cannot parse permutation from {text!r}") from exc

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


def contains_bivincular_A(p: Perm) -> bool:
    """Ascent bottom's predecessor value occurs two or more places later."""
    n = len(p)
    pos = [0] * (n + 1)  # pos[v] = 1-based position of value v
    for i, v in enumerate(p):
        pos[v] = i + 1
    for i in range(n - 1):
        a = p[i]
        if a < p[i + 1] and a >= 2 and pos[a - 1] >= i + 3:
            return True
    return False


def contains_bivincular_B(p: Perm) -> bool:
    """Ascent top's predecessor value occurs two or more places later."""
    n = len(p)
    pos = [0] * (n + 1)
    for i, v in enumerate(p):
        pos[v] = i + 1
    for i in range(n - 1):
        b = p[i + 1]
        if p[i] < b and pos[b - 1] >= i + 3:
            return True
    return False


_SEQ_PREDICATES = {
    ClassId.INV: is_inversion,
    ClassId.ASC: is_ascent,
    ClassId.T21: is_t21,
    ClassId.B: is_b_class,
    ClassId.C: is_c_class,
}


def is_member(class_id: ClassId, obj) -> bool:
    """Membership test; the object kind must match the class kind."""
    if class_id.is_permutation_class:
        if not isinstance(obj, Perm):
            raise UsageError(f"{class_id.value} expects a Perm, got {type(obj).__name__}")
        if len(obj) == 0:
            raise UsageError("membership is defined for non-empty objects")
        if class_id is ClassId.PERM_ALL:
            return True
        if class_id is ClassId.PERM_AVOID_A:
            return not contains_bivincular_A(obj)
        return not contains_bivincular_B(obj)
    if isinstance(obj, Perm):
        raise UsageError(f"{class_id.value} expects a Seq, got a Perm")
    if len(obj) == 0:
        raise UsageError("membership is defined for non-empty objects")
    return _SEQ_PREDICATES[class_id](obj)


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
# Each sequence class is generated by prefix extension with an incremental
# state, so pruning happens as early as possible:
#   INV   value bound only
#   ASC   running ascent count
#   T21   set of values already used (v is legal iff v+1 unused)
#   B     (no_more_max, banned values)
#   C     banned values
# The last level is emitted in a batch to keep the recursion shallow.


def _stream_inv(n, prefix):
    for i, v in enumerate(prefix):
        if not 0 <= v <= i:
            return
    yield from _rec_inv(list(prefix), n)


def _rec_inv(vals, n):
    m = len(vals)
    if m >= n:
        if m == n:
            yield Seq._wrap(tuple(vals))
        return
    if m == n - 1:
        base = tuple(vals)
        for v in range(n):
            yield Seq._wrap(base + (v,))
        return
    for v in range(m + 1):
        vals.append(v)
        yield from _rec_inv(vals, n)
        vals.pop()


def _stream_asc(n, prefix):
    asc = 0
    for i, v in enumerate(prefix):
        if i == 0:
            if v != 0:
                return
        else:
            if not 0 <= v <= asc + 1:
                return
            if v > prefix[i - 1]:
                asc += 1
    yield from _rec_asc(list(prefix), n, asc)


def _rec_asc(vals, n, asc):
    m = len(vals)
    if m >= n:
        if m == n:
            yield Seq._wrap(tuple(vals))
        return
    if m == 0:
        vals.append(0)
        yield from _rec_asc(vals, n, 0)
        vals.pop()
        return
    prev = vals[-1]
    if m == n - 1:
        base = tuple(vals)
        for v in range(asc + 2):
            yield Seq._wrap(base + (v,))
        return
    for v in range(asc + 2):
        vals.append(v)
        yield from _rec_asc(vals, n, asc + (1 if v > prev else 0))
        vals.pop()


def _stream_t21(n, prefix):
    used = set()
    for i, v in enumerate(prefix):
        if not 0 <= v <= i or (v + 1) in used:
            return
        used.add(v)
    yield from _rec_t21(list(prefix), n, used)


def _rec_t21(vals, n, used):
    m = len(vals)
    if m >= n:
        if m == n:
            yield Seq._wrap(tuple(vals))
        return
    if m == n - 1:
        base = tuple(vals)
        for v in range(m + 1):
            if (v + 1) not in used:
                yield Seq._wrap(base + (v,))
        return
    for v in range(m + 1):
        if (v + 1) in used:
            continue
        vals.append(v)
        fresh = v not in used
        if fresh:
            used.add(v)
        yield from _rec_t21(vals, n, used)
        if fresh:
            used.discard(v)
        vals.pop()


def _b_step(state, m, prev, v):
    # Appending v at 0-based index m (so the new pair is at 1-based i = m).
    no_more_max, banned = state
    if v > m or v in banned or (no_more_max and v == m):
        return None
    if m >= 1 and prev >= v:
        if prev == m - 1:
            return (True, banned)
        return (no_more_max, banned | {m - 1})
    return state


def _c_step(state, m, prev, v):
    banned = state
    if v > m or v in banned:
        return None
    if m >= 1 and prev >= v:
        return banned | {m}
    return state


def _stream_banned(n, prefix, step, state):
    for i, v in enumerate(prefix):
        state = step(state, i, prefix[i - 1] if i else 0, v)
        if state is None:
            return
    yield from _rec_banned(list(prefix), n, step, state)


def _rec_banned(vals, n, step, state):
    m = len(vals)
    if m >= n:
        if m == n:
            yield Seq._wrap(tuple(vals))
        return
    prev = vals[-1] if m else 0
    if m == n - 1:
        base = tuple(vals)
        for v in range(m + 1):
            if step(state, m, prev, v) is not None:
                yield Seq._wrap(base + (v,))
        return
    for v in range(m + 1):
        nxt = step(state, m, prev, v)
        if nxt is None:
            continue
        vals.append(v)
        yield from _rec_banned(vals, n, step, nxt)
        vals.pop()


def _stream_perm(n, prefix, contains):
    base = tuple(prefix)
    if len(set(base)) != len(base) or any(not 1 <= v <= n for v in base):
        return
    rest = sorted(set(range(1, n + 1)) - set(base))
    for tail in itertools.permutations(rest):
        p = base + tail
        if contains is None or not contains(p):
            yield Perm._wrap(p)


def enumerate_class(class_id: ClassId, n: int, prefix=(), limit: int | None = None) -> Iterator:
    """Yield every length-n member once, lexicographically, extending prefix.

    `limit` overrides the default length ceiling (10 for the n! permutations
    and inversion sequences, 12 for the other sequence classes); exceeding
    it raises ResourceLimitError.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise UsageError(f"length must be an integer >= 1, got {n!r}")
    factorial = class_id.is_permutation_class or class_id is ClassId.INV
    ceiling = limit if limit is not None else (
        DEFAULT_PERM_LIMIT if factorial else DEFAULT_SEQ_LIMIT)
    if n > ceiling:
        raise ResourceLimitError(
            f"length {n} exceeds the enumeration limit {ceiling} for {class_id.value}")
    prefix = tuple(prefix)
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in prefix):
        raise UsageError(f"prefix must hold integers >= 0, got {prefix!r}")
    if len(prefix) > n:
        return iter(())
    if class_id is ClassId.INV:
        return _stream_inv(n, prefix)
    if class_id is ClassId.ASC:
        return _stream_asc(n, prefix)
    if class_id is ClassId.T21:
        return _stream_t21(n, prefix)
    if class_id is ClassId.B:
        return _stream_banned(n, prefix, _b_step, (False, frozenset()))
    if class_id is ClassId.C:
        return _stream_banned(n, prefix, _c_step, frozenset())
    if class_id is ClassId.PERM_ALL:
        return _stream_perm(n, prefix, None)
    if class_id is ClassId.PERM_AVOID_A:
        return _stream_perm(n, prefix, contains_bivincular_A)
    if class_id is ClassId.PERM_AVOID_B:
        return _stream_perm(n, prefix, contains_bivincular_B)
    raise UsageError(f"cannot enumerate {class_id!r}")
