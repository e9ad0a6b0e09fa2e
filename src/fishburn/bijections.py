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
just when it occurs again later.

The encoder keeps the runs as one bit set, free, of 0 and the values not yet
placed.  A run starts at each set bit whose lower bit is clear, so the run of
v has the rank, from the bottom, of the starts at or below v, less one; the
parts below and above v are left when bits v - 1 and v + 1 of free are set.
"""

from __future__ import annotations

from .errors import DomainError, invariant
from .seqcore import ClassId, Perm, Seq, is_inversion, perm_transform, rule_runner

# each domain's step rule, read over a word: None when the word leaves it
_in_asc, _in_b, _in_c, _avoids_a, _avoids_b = map(rule_runner, (
    ClassId.ASC, ClassId.B, ClassId.C, ClassId.PERM_AVOID_A,
    ClassId.PERM_AVOID_B))


def lehmer_code(p: Perm) -> Seq:
    """Count, for each entry, the larger entries before it."""
    out, seen = [], 0  # seen: bit set of the entries so far
    for v in p:
        out.append((seen >> (v + 1)).bit_count())
        seen |= 1 << v
    return Seq._wrap(tuple(out))


# --- the labeled-interval code -------------------------------------------

def _relabel(labels, i, r, lower, upper):
    """Labels after step i hits the run of rank r and leaves a part below
    (lower) and/or above (upper) the placed value; the bottom label is i."""
    if not upper:
        del labels[r]
    if not lower:
        labels.remove(i)
    labels.insert(0, i + 1)


def bv_code(p: Perm) -> Seq:
    free, labels, out = (2 << len(p)) - 1, [0], []
    for i, v in enumerate(p):
        r = (free & ~(free << 1) & ((2 << v) - 1)).bit_count() - 1
        out.append(labels[r])
        free ^= 1 << v
        _relabel(labels, i, r, free >> (v - 1) & 1, free >> (v + 1) & 1)
    return Seq._wrap(tuple(out))


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
        _relabel(labels, i, r, lower, upper)
        path = runs[r]
        paths.append(path + (1,))
        runs[r:r + 1] = [path + (0,)] * lower + [path + (2,)] * upper
    invariant(len(runs) == 1, "decode failed for", s)
    value = {path: v for v, path in enumerate(sorted(paths), 1)}
    return Perm._wrap(tuple([value[path] for path in paths]))


# --- subtraction/addition passes ------------------------------------------
#
# Both pairs of passes visit the non-ascent positions i: the subtraction
# from the last one down, the addition from the first one up.  At each i,
# when the entry before i lies below the bar i - shift, every entry from i on
# that lies above the bar (at or above it, when adding) moves by one.  The
# shift is 1 between B and the ascent sequences and 0 between C and them;
# with shift 0 the entry before i never reaches the bar, as s[i-1] < i.

def _pass(s, shift, step, _trace):
    """The subtraction (step -1) or addition (step +1) pass over s."""
    out, n = list(s), len(s)
    nasc = [i for i in range(1, n) if s[i - 1] >= s[i]]
    for i in (nasc if step > 0 else reversed(nasc)):
        bar = i - shift
        if out[i - 1] < bar:
            low = bar + (step < 0)  # the least entry that moves
            for j in range(i, n):
                if out[j] >= low:
                    out[j] += step
        if _trace is not None:
            _trace.append((i, Seq._wrap(tuple(out))))
    return Seq._wrap(tuple(out))


def _guarded_pass(domain, refusal, shift, step):
    """The pass as a public map, refusing non-members of its domain."""
    def guarded(s: Seq, _trace=None) -> Seq:
        if not s or domain(s) is None:
            raise DomainError(f"{refusal}: {tuple(s)!r}")
        return _pass(s, shift, step, _trace)
    return guarded


beta = _guarded_pass(_in_b, "not in the subtraction domain", 1, -1)
beta_inv = _guarded_pass(_in_asc, "not an ascent sequence", 1, 1)
gamma = _guarded_pass(_in_c, "not in the subtraction domain", 0, -1)
gamma_inv = _guarded_pass(_in_asc, "not an ascent sequence", 0, 1)


# --- composed bijections: the code, then beta (psi) or gamma (phi) ---------

def _encode(p, name, avoids, in_class, shift):
    if not p:
        raise DomainError(f"{name} is defined for non-empty permutations")
    if avoids(p) is None:
        raise DomainError(f"{p.to_text()} contains the forbidden pattern")
    code = bv_code(p)
    if in_class(code) is None:
        raise AssertionError(f"code of {p.to_text()} left the expected class: {tuple(code)!r}")
    return _pass(code, shift, -1, None)  # the subtraction pass of beta or gamma


def _decode(s, add, avoids):
    p = bv_decode(add(s))
    if avoids(p) is None:
        raise AssertionError(f"decoded permutation {p.to_text()} contains the forbidden pattern")
    return p


def psi(p: Perm) -> Seq:
    return _encode(p, "psi", _avoids_a, _in_b, 1)


def psi_inv(s: Seq) -> Perm:
    return _decode(s, beta_inv, _avoids_a)


def phi(p: Perm) -> Seq:
    return _encode(p, "phi", _avoids_b, _in_c, 0)


def phi_inv(s: Seq) -> Perm:
    return _decode(s, gamma_inv, _avoids_b)


def upsilon(s: Seq) -> Seq:
    """Self-map of ascent sequences swapping asc with rep and
    sending (zero, max) to (rmin, zero)."""
    return phi(perm_transform(psi_inv(s)))
