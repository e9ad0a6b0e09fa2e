"""Codes and bijections between permutations and sequence classes.

Contents:

  lehmer_code     permutation -> inversion sequence, counting larger
                  entries to the left of each position
  bv_code         the labeled-interval permutation code: values are placed
                  one at a time, and each entry is the label of the run hit
  bv_decode       inverse of bv_code by the same rule, with no search
  beta/beta_inv   subtraction/addition passes between the class B and
                  ascent sequences, driven by the non-ascent positions
  gamma/gamma_inv the same shape of passes between class C and ascent
                  sequences, with threshold i instead of i - 1
  psi/psi_inv     beta after bv_code, restricted to one bivincular
                  avoidance class
  phi/phi_inv     gamma after bv_code, restricted to the other class
  upsilon         the self-map of ascent sequences obtained by pulling a
                  sequence back through psi, flipping the permutation by
                  inverse-then-complement, and pushing through phi; it
                  swaps asc with rep and sends (zero, max) to (rmin, zero)

Before step i of the code, the values not yet placed, plus 0, form maximal
runs of consecutive integers, each labelled; the bottom run holds 0 and
label i.  Step i places p[i] and splits its run into the parts below and
above it.  The new bottom run takes label i + 1; every other label stays
just when it occurs again later.  A slice lists (lo, hi, label) top down.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import DomainError, invariant
from .seqcore import (Perm, Seq, contains_bivincular_A, contains_bivincular_B,
                      is_ascent, is_b_class, is_c_class, is_inversion,
                      perm_transform)


def lehmer_code(p: Perm) -> Seq:
    """Count, for each entry, the larger entries before it."""
    out, seen = [], 0  # seen: bit set of the entries so far
    for v in p:
        out.append((seen >> (v + 1)).bit_count())
        seen |= 1 << v
    return Seq._wrap(tuple(out))


# --- the labeled-interval code -------------------------------------------

def _relabel(labels, i, hit, lower, upper):
    """Labels after step i hits the run labelled hit and leaves a part
    below (lower) and/or above (upper) the placed value."""
    return [i + 1] + [b for b in labels if (b != hit or upper) and (b != i or lower)]


def _walk(p):
    """Yield each step's runs [lo, hi] bottom-up, labels and the run of p[i]."""
    runs, labels = [(0, len(p))], [0]
    for i, v in enumerate(p):
        r = bisect_left(runs, (v + 1,)) - 1
        yield runs, labels, r
        lo, hi = runs[r]
        labels = _relabel(labels, i, labels[r], v > lo, v < hi)
        runs[r:r + 1] = [(lo, v - 1)] * (v > lo) + [(v + 1, hi)] * (v < hi)


def bv_slices(p: Perm) -> list:
    """All n slices of the permutation, starting from ((0, n, 0),)."""
    return [tuple((lo, hi, b) for (lo, hi), b in zip(runs[::-1], labels[::-1]))
            for runs, labels, _ in _walk(p)]


def bv_code(p: Perm) -> Seq:
    return Seq._wrap(tuple([labels[r] for _, labels, r in _walk(p)]))


def bv_decode(s: Seq) -> Perm:
    """Unique permutation whose code is s.  Paths in the steps' split tree
    (0 below, 1 the placed value, 2 above) sort in value order."""
    if not is_inversion(s):
        raise DomainError(f"not an inversion sequence: {tuple(s)!r}")
    runs, labels, paths = [()], [0], []
    for i, hit in enumerate(s):
        # labels.index is total: bv_code maps S_n onto the inversion sequences
        r = labels.index(hit)
        later = s[i + 1:]
        lower, upper = r == 0 or i in later, hit in later
        labels = _relabel(labels, i, hit, lower, upper)
        path = runs[r]
        paths.append(path + (1,))
        runs[r:r + 1] = [path + (0,)] * lower + [path + (2,)] * upper
    invariant(len(runs) == 1, "decode failed for", s)
    value = {path: v for v, path in enumerate(sorted(paths), 1)}
    return Perm._wrap(tuple([value[path] for path in paths]))


# --- subtraction/addition passes ------------------------------------------

def _nasc_positions(s):
    return [i for i in range(1, len(s)) if s[i - 1] >= s[i]]


def beta(b: Seq, _trace=None) -> Seq:
    if not is_b_class(b):
        raise DomainError(f"not in the subtraction domain: {tuple(b)!r}")
    s = list(b)
    n = len(s)
    for i in reversed(_nasc_positions(b)):
        if s[i - 1] < i - 1:
            for j in range(i, n):
                if s[j] > i - 1:
                    s[j] -= 1
        if _trace is not None:
            _trace.append((i, Seq._wrap(tuple(s))))
    return Seq._wrap(tuple(s))


def beta_inv(s: Seq, _trace=None) -> Seq:
    if not is_ascent(s):
        raise DomainError(f"not an ascent sequence: {tuple(s)!r}")
    b = list(s)
    n = len(b)
    for i in _nasc_positions(s):
        if b[i - 1] < i - 1:
            for j in range(i, n):
                if b[j] >= i - 1:
                    b[j] += 1
        if _trace is not None:
            _trace.append((i, Seq._wrap(tuple(b))))
    return Seq._wrap(tuple(b))


def gamma(c: Seq, _trace=None) -> Seq:
    if not is_c_class(c):
        raise DomainError(f"not in the subtraction domain: {tuple(c)!r}")
    s = list(c)
    n = len(s)
    for i in reversed(_nasc_positions(c)):
        for j in range(i, n):
            if s[j] > i:
                s[j] -= 1
        if _trace is not None:
            _trace.append((i, Seq._wrap(tuple(s))))
    return Seq._wrap(tuple(s))


def gamma_inv(s: Seq, _trace=None) -> Seq:
    if not is_ascent(s):
        raise DomainError(f"not an ascent sequence: {tuple(s)!r}")
    c = list(s)
    n = len(c)
    for i in _nasc_positions(s):
        for j in range(i, n):
            if c[j] >= i:
                c[j] += 1
        if _trace is not None:
            _trace.append((i, Seq._wrap(tuple(c))))
    return Seq._wrap(tuple(c))


# --- composed bijections ---------------------------------------------------

def psi(p: Perm) -> Seq:
    if contains_bivincular_A(p):
        raise DomainError(f"{p.to_text()} contains the forbidden pattern")
    b = bv_code(p)
    if not is_b_class(b):
        raise AssertionError(f"code of {p.to_text()} left the expected class: {tuple(b)!r}")
    return beta(b)


def psi_inv(s: Seq) -> Perm:
    b = beta_inv(s)
    p = bv_decode(b)
    if contains_bivincular_A(p):
        raise AssertionError(f"decoded permutation {p.to_text()} contains the forbidden pattern")
    return p


def phi(p: Perm) -> Seq:
    if contains_bivincular_B(p):
        raise DomainError(f"{p.to_text()} contains the forbidden pattern")
    c = bv_code(p)
    if not is_c_class(c):
        raise AssertionError(f"code of {p.to_text()} left the expected class: {tuple(c)!r}")
    return gamma(c)


def phi_inv(s: Seq) -> Perm:
    c = gamma_inv(s)
    p = bv_decode(c)
    if contains_bivincular_B(p):
        raise AssertionError(f"decoded permutation {p.to_text()} contains the forbidden pattern")
    return p


def upsilon(s: Seq) -> Seq:
    """Self-map of ascent sequences swapping asc with rep and
    sending (zero, max) to (rmin, zero)."""
    p = psi_inv(s)
    return phi(perm_transform(p, "inverse_then_complement"))
