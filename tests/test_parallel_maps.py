"""The parallel maps against their separately written references.

beta/gamma, psi/phi, the walks vartheta/theta_R with their rewinds, the
block tests behind T_F/ASC_G and the markers mpair/zpair each come in two
copies that differ only in a threshold, a class or the anchor they follow
(maximal entries or zeros).  The references below are those copies written
out one by one, as separate functions with no shared kernel; the walks
call the step surgeries `decomp._M0` ... `decomp._undo_Z2`, which were not
merged, and hand each step the anchors and the ordinal it takes.  `mpair_shift` now runs one of the steps `_M1`, `_M2`, `_undo_M1`,
`_undo_M2`; its former surgery of its own is kept below as
`ref_mpair_shift`.  Every map is compared with its reference over whole
classes to n = 8: outputs, `_trace` lists, and the type and message of
every exception, invalid inputs included.

The one-pass markers, positions, class tests, transform and block labels
keep their former bodies below too (`ref_ealm` ... `ref_classify`),
compared by value and by the type and message of every exception over INV,
or every permutation, to n = 8 and on malformed inputs.  The one-pass class
tests of B and C are no longer in the package, which reads membership off
the step rules; they are the references of tests/class_refs.py, and the
class tests of the references below are read from there too.

The four bijection checks of harness run one transport kernel; its two
former copies, the scalar one and the set-valued one, are kept below and
compared with it under faults keyed to one input.
"""

import pytest

from fishburn import bijections, decomp, harness, stats
from fishburn.decomp import MapResult
from fishburn.errors import DomainError, UsageError, invariant
from fishburn.seqcore import ClassId, Perm, Seq, enumerate_class, perm_transform
from fishburn.stats import (maximal_positions, mpair, mpos, perm_stats,
                            set_stats, zero_positions, zpos)

import class_refs
from class_refs import (contains_bivincular_A, contains_bivincular_B,
                        is_ascent, is_b_class, is_c_class, is_inversion,
                        is_t21, ref_is_member)


# --- reference markers --------------------------------------------------------

def ref_mpair(s):
    if not is_t21(s):
        raise DomainError(f"mpair needs a drop-by-one-avoiding sequence, got {tuple(s)!r}")
    best = None
    for idx, k in enumerate(ref_maximal_positions(s)):
        if k < len(s) and s[k] == s[k - 1]:
            best = idx
    if best is None:
        if all(v == i for i, v in enumerate(s)):
            return 0
        raise DomainError(f"no paired maximal in {tuple(s)!r}")
    return best


def ref_zpair(s):
    if not is_ascent(s):
        raise DomainError(f"zpair needs an ascent sequence, got {tuple(s)!r}")
    best = None
    for idx, k in enumerate(ref_zero_positions(s)):
        if k < len(s) and s[k] == 1:
            best = idx
    if best is None:
        if all(v == 0 for v in s):
            return 0
        raise DomainError(f"no zero followed by 1 in {tuple(s)!r}")
    return best


def ref_maximal_positions(s):
    return tuple(i for i in range(1, len(s) + 1) if s[i - 1] == i - 1)


def ref_zero_positions(s):
    return tuple(i for i in range(1, len(s) + 1) if s[i - 1] == 0)


def ref_ealm(s):
    if not is_ascent(s):
        raise DomainError(f"ealm needs an ascent sequence, got {tuple(s)!r}")
    p = len(ref_maximal_positions(s))
    if p == len(s):
        return 0
    return s[p]


def _ref_pos_marker(s, anchors, pair_index, is_critical):
    start = anchors[pair_index] + 2
    crit = [l for l in range(start, len(s) + 1) if is_critical(l, s[l - 1])]
    if not crit:
        return 0
    leftmost = crit[0]
    m = max(idx for idx, k in enumerate(anchors) if k < leftmost)
    return m + 1


def ref_mpos(s):
    j = ref_mpair(s)
    return _ref_pos_marker(s, ref_maximal_positions(s), j,
                           lambda l, v: v == l - 2)


def ref_zpos(s):
    j = ref_zpair(s)
    return _ref_pos_marker(s, ref_zero_positions(s), j, lambda l, v: v == 1)


# --- reference class tests and the transform of upsilon -----------------------

def ref_is_b_class(s):
    if not is_inversion(s):
        return False
    n = len(s)
    for i in range(1, n):  # 1-based non-ascent position i
        if s[i - 1] < s[i]:
            continue
        if s[i - 1] == i - 1:
            if any(s[j] == j for j in range(i, n)):
                return False
        elif (i - 1) in s[i:]:
            return False
    return True


def ref_is_c_class(s):
    if not is_inversion(s):
        return False
    n = len(s)
    for i in range(1, n):
        if s[i - 1] >= s[i] and i in s[i:]:
            return False
    return True


def ref_inverse_then_complement(p):
    """The inverse, then the complement of it, in two passes."""
    n = len(p)
    inverse = [0] * n
    for i, v in enumerate(p):
        inverse[v - 1] = i + 1
    return Perm._wrap(tuple(n + 1 - v for v in inverse))


def inverse_then_complement(p):
    return perm_transform(p)


def ref_in_F(s):
    p = len(maximal_positions(s))
    j = ref_mpair(s)
    if j >= p - 1:
        return False
    k1 = maximal_positions(s)[j + 1]
    return k1 == len(s) or s[k1] == k1


def ref_in_G(s):
    p = len(zero_positions(s))
    j = ref_zpair(s)
    if j >= p - 1:
        return False
    k1 = zero_positions(s)[j + 1]
    return k1 == len(s) or s[k1] == 0


def ref_classify(s, scheme):
    """The former body of decomp.classify: a membership test, then markers
    that each test membership again."""
    scheme = scheme.strip().upper()
    n = len(s)
    if scheme == "ASC_S":
        _require(is_ascent(s), f"not an ascent sequence: {tuple(s)!r}")
        p = len(ref_maximal_positions(s))
        _require(n > p, f"identity run has no tail to classify: {tuple(s)!r}")
        if n == p + 1:
            return "S1"
        if s[p] >= s[p + 1]:
            return "S2"
        return "S4" if p in s[p + 1:] else "S3"
    if scheme == "ASC_P":
        _require(is_ascent(s) and n > 0,
                 f"not a nonempty ascent sequence: {tuple(s)!r}")
        q = len(ref_maximal_positions(s))
        return "P" if s.count(q - 1) == 1 else "Pc"
    if scheme == "T_J":
        _require(is_t21(s), f"drop-by-one pattern present: {tuple(s)!r}")
        _require(n > len(ref_maximal_positions(s)),
                 f"identity run has no tail to classify: {tuple(s)!r}")
        return "J1" if ref_mpos(s) == 0 else "J2"
    if scheme == "T_F":
        _require(is_t21(s) and n > 0,
                 f"not a nonempty drop-by-one-avoiding sequence: {tuple(s)!r}")
        return "F" if ref_in_F(s) else "Fc"
    if scheme == "ASC_R":
        _require(is_ascent(s), f"not an ascent sequence: {tuple(s)!r}")
        _require(n > len(ref_zero_positions(s)),
                 f"all-zero run has no nonzero entry: {tuple(s)!r}")
        return "R1" if ref_zpos(s) == 0 else "R2"
    if scheme == "ASC_G":
        _require(is_ascent(s) and n > 0,
                 f"not a nonempty ascent sequence: {tuple(s)!r}")
        return "G" if ref_in_G(s) else "Gc"
    valid = ", ".join(decomp.SUBSET_SCHEMES)
    raise UsageError(f"unknown scheme {scheme!r}; expected one of: {valid}")


# --- reference subtraction/addition passes and compositions -------------------

def _nasc_positions(s):
    return [i for i in range(1, len(s)) if s[i - 1] >= s[i]]


def ref_beta(b, _trace=None):
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


def ref_beta_inv(s, _trace=None):
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


def ref_gamma(c, _trace=None):
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


def ref_gamma_inv(s, _trace=None):
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


def ref_psi(p):
    if contains_bivincular_A(p):
        raise DomainError(f"{p.to_text()} contains the forbidden pattern")
    b = bijections.bv_code(p)
    if not is_b_class(b):
        raise AssertionError(f"code of {p.to_text()} left the expected class: {tuple(b)!r}")
    return ref_beta(b)


def ref_psi_inv(s):
    b = ref_beta_inv(s)
    p = bijections.bv_decode(b)
    if contains_bivincular_A(p):
        raise AssertionError(f"decoded permutation {p.to_text()} contains the forbidden pattern")
    return p


def ref_phi(p):
    if contains_bivincular_B(p):
        raise DomainError(f"{p.to_text()} contains the forbidden pattern")
    c = bijections.bv_code(p)
    if not is_c_class(c):
        raise AssertionError(f"code of {p.to_text()} left the expected class: {tuple(c)!r}")
    return ref_gamma(c)


def ref_phi_inv(s):
    c = ref_gamma_inv(s)
    p = bijections.bv_decode(c)
    if contains_bivincular_B(p):
        raise AssertionError(f"decoded permutation {p.to_text()} contains the forbidden pattern")
    return p


# --- reference walks around the paired maximal --------------------------------

def _require(cond, msg):
    if not cond:
        raise DomainError(msg)


def ref_vartheta(s, i, _trace=None):
    _require(is_t21(s) and len(s) > 0,
             f"not a nonempty drop-by-one-avoiding sequence: {tuple(s)!r}")
    _require(not ref_in_F(s), f"block F is out of range: {tuple(s)!r}")
    j = ref_mpair(s)
    _require(0 <= i < j, f"target ordinal {i} not below paired ordinal {j}")
    cur = decomp._M0(list(s), maximal_positions(s), j)
    if _trace is not None:
        _trace.append(("M0", Seq(cur)))
    c = j - 1
    while c > i:
        kp = maximal_positions(cur)
        if kp[c - 1] + 1 == kp[c]:
            cur = decomp._M1(cur, kp, c)
            label = "M1"
        else:
            cur = decomp._M2(cur, kp, c)
            label = "M2"
        if _trace is not None:
            _trace.append((label, Seq(cur)))
        c -= 1
    return Seq(cur)


def ref_vartheta_inv(s, _trace=None):
    _require(is_t21(s) and len(s) > 0,
             f"not a nonempty drop-by-one-avoiding sequence: {tuple(s)!r}")
    _require(len(s) > len(maximal_positions(s)),
             f"identity run excluded: {tuple(s)!r}")
    _require(mpos(s) != 0, f"no critical maximal: {tuple(s)!r}")
    i = ref_mpair(s)
    cur = list(s)
    for _ in range(len(s) + 1):
        found = maximal_positions(cur), ref_mpair(tuple(cur))
        if ref_in_F(cur):
            cur = decomp._undo_M1(cur, *found)
            label = "undo_M1"
        elif mpos(tuple(cur)) == found[1] + 1:
            cur = decomp._undo_M0(cur, *found)
            if _trace is not None:
                _trace.append(("undo_M0", Seq(cur)))
            return MapResult(Seq(cur), i)
        else:
            cur = decomp._undo_M2(cur, *found)
            label = "undo_M2"
        if _trace is not None:
            _trace.append((label, Seq(cur)))
    raise AssertionError(f"paired-maximal rewind did not terminate: {tuple(s)!r}")


# --- reference shift of the paired maximal ------------------------------------
# The surgery mpair_shift did before it ran the steps of the walk.

def ref_mpair_shift(s, direction, _trace=None):
    """Move the paired-maximal ordinal one step up or down inside block J1.

    rep and max are preserved; the local surgery depends on whether the
    next maximal is flush against the pair (block F) or separated from it.
    """
    _require(is_t21(s), f"drop-by-one pattern present: {tuple(s)!r}")
    _require(len(s) > len(ref_maximal_positions(s)),
             f"identity run excluded: {tuple(s)!r}")
    _require(ref_mpos(s) == 0, f"critical maximal present: {tuple(s)!r}")
    p = len(maximal_positions(s))
    i = mpair(s)
    if direction == "up":
        _require(i < p - 1, f"paired maximal already next to top: {tuple(s)!r}")
        kp = maximal_positions(s)
        k_i, k_i1 = kp[i], kp[i + 1]
        if ref_in_F(s):
            label = "flush"
            out = [v for idx, v in enumerate(s) if idx != k_i1 - 1]
            out = [v + 1 if k_i - 1 <= v <= k_i1 - 2 else v for v in out]
            out.insert(out.index(k_i), k_i - 1)
        else:
            label = "separated"
            out = list(s)
            y = out[k_i1]
            popped = out.pop(k_i)
            invariant(popped == k_i - 1)
            invariant(out[k_i1 - 2] == k_i1 - 1)
            out[k_i1 - 1] = k_i1 - 1
            out.insert(k_i1 - 2, y)
    elif direction == "down":
        _require(i >= 1, f"paired maximal already first: {tuple(s)!r}")
        KB = maximal_positions(s)
        if KB[i] == KB[i - 1] + 1:
            label = "undo_flush"
            n0 = len(s)
            out = list(s)
            popped = out.pop(KB[i - 1] - 1)
            invariant(popped == KB[i - 1] - 1)
            if i + 1 <= p - 1:
                X = KB[i + 1] - 2
                out = [v - 1 if KB[i - 1] <= v <= X else v for v in out]
                out.insert(KB[i + 1] - 2, X)
            else:
                X = n0 - 1
                out = [v - 1 if KB[i - 1] <= v <= X else v for v in out]
                out.append(X)
        else:
            label = "undo_separated"
            out = list(s)
            y = out[KB[i] - 2]
            del out[KB[i] - 2]
            invariant(out[KB[i] - 1] == KB[i] - 1)
            out[KB[i] - 1] = y
            out.insert(KB[i - 1], KB[i - 1] - 1)
    else:
        raise UsageError(f"direction must be 'up' or 'down', got {direction!r}")
    if _trace is not None:
        _trace.append((label, Seq(out)))
    return Seq(out)


# --- reference walks around the paired zero -----------------------------------

def ref_theta_R(s, i, _trace=None):
    _require(is_ascent(s) and len(s) > 0,
             f"not a nonempty ascent sequence: {tuple(s)!r}")
    _require(not ref_in_G(s), f"block G is out of range: {tuple(s)!r}")
    j = ref_zpair(s)
    _require(0 <= i < j, f"target ordinal {i} not below paired ordinal {j}")
    cur = decomp._Z0(list(s), zero_positions(s), j)
    if _trace is not None:
        _trace.append(("Z0", Seq(cur)))
    c = j - 1
    while c > i:
        zp = zero_positions(cur)
        if zp[c - 1] + 1 == zp[c]:
            cur = decomp._Z1(cur, zp, c)
            label = "Z1"
        else:
            cur = decomp._Z2(cur, zp, c)
            label = "Z2"
        if _trace is not None:
            _trace.append((label, Seq(cur)))
        c -= 1
    return Seq(cur)


def ref_theta_R_inv(s, _trace=None):
    _require(is_ascent(s) and len(s) > 0,
             f"not a nonempty ascent sequence: {tuple(s)!r}")
    _require(len(s) > len(zero_positions(s)), f"all-zero run excluded: {tuple(s)!r}")
    _require(zpos(s) != 0, f"no critical one: {tuple(s)!r}")
    i = ref_zpair(s)
    cur = list(s)
    for _ in range(len(s) + 1):
        found = zero_positions(cur), ref_zpair(tuple(cur))
        if ref_in_G(cur):
            cur = decomp._undo_Z1(cur, *found)
            label = "undo_Z1"
        elif zpos(tuple(cur)) == found[1] + 1:
            cur = decomp._undo_Z0(cur, *found)
            if _trace is not None:
                _trace.append(("undo_Z0", Seq(cur)))
            return MapResult(Seq(cur), i)
        else:
            cur = decomp._undo_Z2(cur, *found)
            label = "undo_Z2"
        if _trace is not None:
            _trace.append((label, Seq(cur)))
    raise AssertionError(f"paired-zero rewind did not terminate: {tuple(s)!r}")


# --- the comparisons ----------------------------------------------------------

LENGTHS = range(1, 9)


def outcome(fn, *args, traced=False):
    """What a call did: its result's repr, or the type and message of the
    exception it raised, together with the trace it left."""
    trace = [] if traced else None
    kwargs = {"_trace": trace} if traced else {}
    try:
        return "returned", repr(fn(*args, **kwargs)), trace
    except Exception as exc:  # every exception is part of the contract
        return "raised", type(exc), str(exc), trace


def same(fn, ref, *args, traced=False):
    got = outcome(fn, *args, traced=traced)
    assert got == outcome(ref, *args, traced=traced), (fn.__name__, args)
    if traced and got[0] == "returned":  # and the same without a trace
        assert outcome(fn, *args)[1] == got[1], (fn.__name__, args)


def members(n, *classes):
    """The union of the classes at length n, in a fixed order."""
    return sorted({s for cid in classes for s in enumerate_class(cid, n)})


@pytest.mark.parametrize("n", LENGTHS)
def test_passes_over_B_C_and_ASC(n):
    for s in members(n, ClassId.B, ClassId.C, ClassId.ASC):
        same(bijections.beta, ref_beta, s, traced=True)
        same(bijections.beta_inv, ref_beta_inv, s, traced=True)
        same(bijections.gamma, ref_gamma, s, traced=True)
        same(bijections.gamma_inv, ref_gamma_inv, s, traced=True)


@pytest.mark.parametrize("n", LENGTHS)
def test_compositions_over_the_avoiders(n):
    for p in members(n, ClassId.PERM_AVOID_A, ClassId.PERM_AVOID_B):
        same(bijections.psi, ref_psi, p)
        same(bijections.phi, ref_phi, p)
    for s in members(n, ClassId.B, ClassId.C, ClassId.ASC):
        same(bijections.psi_inv, ref_psi_inv, s)
        same(bijections.phi_inv, ref_phi_inv, s)


@pytest.mark.parametrize("n", LENGTHS)
def test_markers_and_blocks(n):
    for s in members(n, ClassId.INV):  # INV holds ASC and T21
        same(stats.mpair, ref_mpair, s)
        same(stats.zpair, ref_zpair, s)
        for scheme in decomp.SUBSET_SCHEMES:
            same(decomp.classify, ref_classify, s, scheme)


# inputs outside every class, for the refusals and the values of kernels
# that do not refuse them
MALFORMED = ((), (1,), (0, 2), (5,), (0, 0, 3))
SEQ_KERNELS = ((stats.mpair, ref_mpair), (stats.zpair, ref_zpair),
               (stats.ealm, ref_ealm), (stats.mpos, ref_mpos),
               (stats.zpos, ref_zpos),
               (stats.maximal_positions, ref_maximal_positions),
               (stats.zero_positions, ref_zero_positions),
               (class_refs.is_b_class, ref_is_b_class),
               (class_refs.is_c_class, ref_is_c_class))


@pytest.mark.parametrize("n", LENGTHS)
def test_marker_and_class_kernels_against_their_former_bodies(n):
    for s in members(n, ClassId.INV):
        for kernel, ref in SEQ_KERNELS:
            same(kernel, ref, s)


@pytest.mark.parametrize("n", LENGTHS)
def test_transform_against_its_two_passes(n):
    for p in enumerate_class(ClassId.PERM_ALL, n):
        same(inverse_then_complement, ref_inverse_then_complement, p)


def test_kernels_on_malformed_input():
    for values in MALFORMED:
        for kernel, ref in SEQ_KERNELS:
            same(kernel, ref, Seq(values))
        for scheme in decomp.SUBSET_SCHEMES + (" asc_s ", "NOPE"):
            same(decomp.classify, ref_classify, Seq(values), scheme)
        same(inverse_then_complement, ref_inverse_then_complement,
             Perm._wrap(values))


WALKS = ((decomp.vartheta, ref_vartheta, decomp.vartheta_inv,
          ref_vartheta_inv, ref_mpair),
         (decomp.theta_R, ref_theta_R, decomp.theta_R_inv, ref_theta_R_inv,
          ref_zpair))


@pytest.mark.parametrize("n", LENGTHS)
def test_walks_and_rewinds(n):
    """Every target ordinal from -1 to the paired one on every member of ASC
    or T21, and the rewind of every member, which covers every image."""
    for s in members(n, ClassId.ASC, ClassId.T21):
        for walk, ref_walk, rewind, ref_rewind, pair in WALKS:
            try:
                top = pair(s)
            except DomainError:
                top = 0
            for i in range(-1, top + 1):
                same(walk, ref_walk, s, i, traced=True)
            same(rewind, ref_rewind, s, traced=True)


@pytest.mark.parametrize("n", LENGTHS)
def test_paired_maximal_shift(n):
    """Both directions and a refused one on every member of ASC or T21:
    block J1 and every input the shift refuses."""
    for s in members(n, ClassId.ASC, ClassId.T21):
        for direction in ("up", "down", "sideways"):
            same(decomp.mpair_shift, ref_mpair_shift, s, direction,
                 traced=True)


# --- the transport check against its two former copies -----------------------

def ref_pointwise(source, map_name, target, want, got, detail, max_n):
    """The scalar copy: membership by the class's hand-written predicate, no
    coverage check."""
    want_of = harness._value_fn(source, want)
    got_of = harness._value_fn(target, got)
    for n in range(1, max_n + 1):
        seen = set()
        for x in enumerate_class(source, n):
            out = getattr(bijections, map_name)(x)
            if not ref_is_member(target, out):
                return {"n": n, "input": x, "output": out, "detail": detail}
            expected, actual = want_of(x), got_of(out)
            if expected != actual:
                return {"n": n, "input": x, "output": out,
                        "expected": expected, "actual": actual}
            if out in seen:
                return {"n": n, "output": out, "detail": "image collision"}
            seen.add(out)
    return None


def ref_setvalued(source, map_name, perm_sets, seq_sets, max_n):
    """The set-valued copy: membership in the enumerated ascent sequences."""
    for n in range(1, max_n + 1):
        targets = set(enumerate_class(ClassId.ASC, n))
        seen = set()
        for p in enumerate_class(source, n):
            s = getattr(bijections, map_name)(p)
            if s not in targets:
                return {"n": n, "input": p, "output": s,
                        "detail": "image is not an ascent sequence"}
            ps, ss = perm_stats(p), set_stats(s)
            want = tuple(ps[k] for k in perm_sets)
            got = tuple(ss[k] for k in seq_sets)
            if want != got:
                return {"n": n, "input": p, "output": s,
                        "expected": want, "actual": got}
            if s in seen:
                return {"n": n, "output": s, "detail": "image collision"}
            seen.add(s)
        if seen != targets:
            return {"n": n, "detail": f"image covers {len(seen)} of "
                                      f"{len(targets)} ascent sequences"}
    return None


TRANSPORTS = ("upsilon_quadruple", "psi_setvalued", "phi_setvalued",
              "lehmer_quadruple")
FAULT_N = 4


def ref_transport(args, max_n):
    source, map_name, target, want, got, detail = args
    if want[0].isupper():  # set-valued names: psi and phi
        return ref_setvalued(source, map_name, want, got, max_n)
    return ref_pointwise(*args, max_n)


def ref_wanted(source, want, x):
    if want[0].isupper():
        return tuple(perm_stats(x)[k] for k in want)
    return harness._value_fn(source, want)(x)


def _outside(args, objs, image):
    """The last object goes to a sequence outside every class."""
    return objs[-1], Seq((1,) * FAULT_N)


def _statistic(args, objs, image):
    """The first object takes the image of the last, which is still free."""
    return objs[0], image(objs[-1])


def _collision(args, objs, image):
    """The last object with the statistics of an earlier one takes the image
    of the first such one; with no such pair, the last object takes the
    image of the first."""
    values = [ref_wanted(args[0], args[3], x) for x in objs]
    twins = [(x, objs[values.index(v)]) for x, v in zip(objs, values)
             if objs[values.index(v)] != x]
    key, twin = twins[-1] if twins else (objs[-1], objs[0])
    return key, image(twin)


FAULT_KINDS = {"outside": _outside, "statistic": _statistic,
               "collision": _collision, "none": None}


@pytest.mark.parametrize("fault", FAULT_KINDS)
@pytest.mark.parametrize("name", TRANSPORTS)
def test_transport_kernel_against_its_former_copies(name, fault,
                                                    monkeypatch):
    """Same counterexample at every max_n <= 6.  The kernel also checks
    that the images cover the target class; under these faults a check
    stops before that, so no coverage row can differ."""
    check = harness._CHECKS[name][0]
    map_name = check.args[1]
    if FAULT_KINDS[fault]:
        image = getattr(bijections, map_name)
        objs = list(enumerate_class(check.args[0], FAULT_N))
        key, faulty = FAULT_KINDS[fault](check.args, objs, image)
        monkeypatch.setattr(bijections, map_name,
                            lambda x: faulty if x == key else image(x))
    reports = [(check(max_n=max_n), ref_transport(check.args, max_n))
               for max_n in range(1, 7)]
    for got, want in reports:
        assert got == want
    assert (reports[-1][0] is None) == (fault == "none")
