"""Ground types, the step rules and exhaustive enumeration for
Fishburn-counted classes.

Two value types: Seq (a finite sequence of non-negative integers, reported
with 1-based positions) and Perm (a permutation of {1..n}).  On top of them,
eight classes, each defined once, by the step rule that admits an entry
after a prefix: INV (the inversion sequences), ASC (the ascent sequences),
T21, B, C, PERM_ALL (all permutations), PERM_AVOID_A and PERM_AVOID_B; the
comment above entry_range states each class and its rule.  Membership
(is_member, is_inversion, the two pattern tests, the guards of bijections,
and Perm itself, through the rule of PERM_ALL), lexicographic enumeration
(a PERM_ALL prefix too), counting and ranking all read those rules.  The
six restricted classes are counted by the Fishburn numbers 1, 2, 5, 15, 53,
217, 1014, ...

Enumeration is in lexicographic order and accepts a fixed prefix so callers
can partition the stream; an infeasible prefix yields an empty stream.
"""

from __future__ import annotations

import functools
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


def check_class(class_id) -> ClassId:
    """class_id, if it is a ClassId; else UsageError."""
    if not isinstance(class_id, ClassId):
        raise UsageError(f"expected a ClassId, got {class_id!r}")
    return class_id


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
        # refuse bools as Seq does, and floats and strs, which break the rule
        if (any(not isinstance(v, int) or isinstance(v, bool) for v in vals)
                or _run_perm(vals) is None):
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


def perm_transform(p: Perm) -> Perm:
    """The complement of the inverse of p."""
    # n - i is the complement of the inverse's entry i + 1; a slot that no
    # entry writes (p is no permutation) holds n + 1, the complement of the
    # inverse's unwritten 0
    n = len(p)
    out = [n + 1] * n
    for i, v in enumerate(p):
        out[v - 1] = n - i
    return Perm._wrap(tuple(out))


# --- the step rules: membership and enumeration --------------------------
#
# Each class is defined once, by a step rule.  Appending v at 0-based index
# m after the entry prev (0 at m = 0) needs v in the range of entry_range
# (0..m for sequences, 1..n for permutations) and the class's step rule
# step(state, m, prev, v) to return the next state, not None.  Each class,
# with s_i (p_i) the entry at 1-based position i, and then its rule:
#   INV           inversion sequences; any v, and the state never changes
#   ASC           s_i <= asc(s_1..s_(i-1)) + 1: v <= asc + 1, with the
#                 ascent count as state (the range already forces the first
#                 entry to 0)
#   T21           no entry equals a later entry plus one: v + 1 unused; the
#                 state is the bit set of used values
#   B             at each non-ascent s_i >= s_(i+1): if s_i = i - 1 is
#                 maximal, no later entry s_j = j - 1 is maximal; otherwise
#                 the value i - 1 occurs nowhere after s_i.  So v not
#                 banned, and v < m once a maximal entry has begun a
#                 non-ascent; the state is (that flag, the bit set of banned
#                 values)
#   C             at each non-ascent s_i >= s_(i+1), the value i occurs
#                 nowhere after s_i: v not banned; the state is the bit set
#                 of banned values
#   PERM_AVOID_A  no ascent p_i < p_(i+1) is followed, two or more places
#                 after p_i, by the value p_i - 1: v unplaced and, at an
#                 ascent prev < v, prev = 1 or prev - 1 placed; the state is
#                 the bit set of placed values
#   PERM_AVOID_B  the same with the value p_(i+1) - 1: v unplaced and, at an
#                 ascent prev < v, v - 1 placed
#   PERM_ALL      v unplaced; the state is the bit set of placed values
#
# rule_runner(class_id) runs a word through the rule, entry by entry, and
# stops at the first entry it refuses.  is_member, is_inversion, the pattern
# tests, the guards of bijections and Perm read membership off it, and graph
# and the PERM_ALL stream run a prefix through it.
#
# A step rule must stay a pure function of (state, m, prev, v), with a
# hashable state: extensions(step, perm, n, m) memoises the admissible
# entries of every (state, prev) it meets at index m, so each key costs one
# call per candidate value.  graph(class_id, n, *prefix) runs the prefix
# through the step rule, then reads those tables forward from its key and
# index, to collect the reachable (state, prev) keys of each later index,
# then backward, to build one node per key: a dict from each admissible
# entry v, in increasing order, to (the completions of the smaller entries,
# the node after v), with None after the last entry.  Nodes are shared by
# every prefix that reaches their key, so the graph is held, not the
# members.  enumerate_class walks it depth-first from the prefix's node,
# over a stack of iterators, so a member is yielded from one frame, not
# through n nested ones; a prefix that the rule refuses, or that no member
# extends, yields nothing.  counting.ranker reads the completions of the
# nodes of the empty prefix (the recursive method of Nijenhuis and Wilf,
# Combinatorial Algorithms, 1978).
# PERM_ALL has nothing to prune, so enumerate_class takes its tails from
# itertools.permutations; its rule serves the ranker and the counter, which
# reads the extension tables with the effect of each entry on the tracked
# statistics as payload: it merges the prefixes that agree on (state, prev)
# and on those statistics, and counts them together.


def entry_range(perm: bool, n: int, m: int) -> range:
    """The values an entry at 0-based index m of a length-n member may take:
    1..n in a permutation, 0..m in an inversion sequence."""
    return range(1, n + 1) if perm else range(m + 1)


def extensions(step, perm: bool, n: int, m: int, payload=None):
    """(state, prev) -> the admissible entries at index m of a length-n
    member after prev, as (v, next state, extra) in increasing v, where
    extra is payload(state, prev, v), or None with no payload.  Memoised per
    (state, prev), for as long as the caller holds the table."""
    memo, values = {}, entry_range(perm, n, m)

    def extend(state, prev):
        found = memo.get((state, prev))
        if found is None:
            found = memo[state, prev] = tuple(
                (v, nxt, payload and payload(state, prev, v))
                for v in values
                if (nxt := step(state, m, prev, v)) is not None)
        return found
    return extend


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


def _perm_step(placed, m, prev, v):
    if placed >> v & 1:
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
    ClassId.PERM_ALL: (_perm_step, 0),
}


@functools.cache
def rule_runner(class_id: ClassId):
    """run(word, n=None): the (state, prev) key after the entries of word
    under the step rule of class_id, or None at the first entry that leaves
    its range (0..m at index m; 1..n in a permutation, with n = len(word)
    by default) or that the rule refuses.  The empty word gives the initial
    key.  One closure per class, built at the first call."""
    step, start = _RULES[class_id]
    perm = class_id.is_permutation_class

    def run(word, n=None):
        top = len(word) if n is None else n
        state, prev = start, 0
        for m, v in enumerate(word):
            if not (1 <= v <= top if perm else 0 <= v <= m):
                return None
            state = step(state, m, prev, v)
            if state is None:
                return None
            prev = v
        return state, prev
    return run


_run_inv, _run_avoid_a, _run_avoid_b, _run_perm = map(rule_runner, (
    ClassId.INV, ClassId.PERM_AVOID_A, ClassId.PERM_AVOID_B, ClassId.PERM_ALL))


def is_member(class_id: ClassId, obj) -> bool:
    """Membership test; the object kind must match the class kind."""
    if class_id.is_permutation_class:
        if not isinstance(obj, Perm):
            raise UsageError(f"{class_id.value} expects a Perm, got {type(obj).__name__}")
    elif isinstance(obj, Perm):
        raise UsageError(f"{class_id.value} expects a Seq, got a Perm")
    if len(obj) == 0:
        raise UsageError("membership is defined for non-empty objects")
    return rule_runner(class_id)(obj) is not None


def is_inversion(s) -> bool:
    return len(s) >= 1 and _run_inv(s) is not None


def contains_bivincular_A(p: Perm) -> bool:
    """Some ascent's bottom has its predecessor value two or more places
    after it: p is non-empty, and the rule of PERM_AVOID_A refuses it."""
    return len(p) >= 1 and _run_avoid_a(p) is None


def contains_bivincular_B(p: Perm) -> bool:
    """Some ascent's top has its predecessor value two or more places after
    the bottom: p is non-empty, and the rule of PERM_AVOID_B refuses it."""
    return len(p) >= 1 and _run_avoid_b(p) is None


def graph(class_id: ClassId, n: int, *prefix) -> tuple:
    """(root, size): size is the number of members of class_id of length
    n that begin with the entries prefix (at most n of them), and root the
    node after them.  A node maps each admissible entry v, in increasing
    order, to (the number of members that extend the same prefix by a
    smaller entry, the node after v); the node after the last entry is
    None.  A prefix that the step rule refuses gives (None, 0)."""
    check_class(class_id)
    check_size(n, "length")
    key = rule_runner(class_id)(prefix, n)
    if key is None:
        return None, 0
    step, perm = _RULES[class_id][0], class_id.is_permutation_class
    # moves[i]: key -> its extensions at index len(prefix) + i
    moves, keys = [], {key}
    for m in range(len(prefix), n):
        extend = extensions(step, perm, n, m)
        moves.append({key: extend(*key) for key in keys})
        keys = {(nxt, v) for found in moves[-1].values()
                for v, nxt, _ in found}
    completions, nodes = dict.fromkeys(keys, 1), dict.fromkeys(keys)
    for found_at in reversed(moves):
        below, counts = {}, {}
        for key, found in found_at.items():
            node, total = {}, 0
            for v, nxt, _ in found:
                node[v] = total, nodes[nxt, v]
                total += completions[nxt, v]
            below[key], counts[key] = node, total
        nodes, completions = below, counts
    return nodes[key], completions[key]


def _walk(class_id, n, prefix):
    node, size = graph(class_id, n, *prefix)
    if not size:
        return
    cls = Perm if class_id.is_permutation_class else Seq
    vals = list(prefix)
    if node is None:
        yield tuple.__new__(cls, vals)
        return
    stack = [iter(node.items())]
    while stack:
        for v, (_, node) in stack[-1]:
            vals.append(v)
            if node is not None:
                stack.append(iter(node.items()))
                break
            yield tuple.__new__(cls, vals)
            vals.pop()
        else:
            stack.pop()
            if stack:
                vals.pop()


def _stream_perm(n, prefix):
    base = tuple(prefix)
    if _run_perm(base, n) is None:
        return
    rest = sorted(set(range(1, n + 1)) - set(base))
    for tail in itertools.permutations(rest):
        yield Perm._wrap(base + tail)


def enumerate_class(class_id: ClassId, n: int, prefix=(), limit: int | None = None) -> Iterator:
    """Yield every length-n member once, lexicographically, extending prefix.

    `limit`, a positive int, overrides the default length ceiling, the
    "enumerate" entry of CAPS; exceeding it raises ResourceLimitError.
    """
    check_class(class_id)
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
    return _walk(class_id, n, prefix)
