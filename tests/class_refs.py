"""The hand-written class predicates, kept as the references of the step
rules.

The package defines each class once, by its step rule in seqcore._RULES,
which membership, enumeration, counting and ranking all read.  These
predicates are the former second definitions, kept verbatim: each one reads
the class off the whole object, with no rule state, so a wrong step rule
shows up against them.  They are the membership of the brute-force
references of the tests.
"""

from fishburn.seqcore import ClassId, Perm


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


# B and C in one pass from the right each, over the bit set of the entries
# after 0-based index i; v at i is an entry of an inversion sequence when
# 0 <= v <= i, and starts a non-ascent when it is at least the entry after.

def is_b_class(s) -> bool:
    later, later_max, nxt = 0, False, -1
    for i in range(len(s) - 1, -1, -1):
        v = s[i]
        if not 0 <= v <= i:
            return False
        if v >= nxt >= 0:
            # a maximal entry at a non-ascent bans later maximal entries;
            # any other entry at a non-ascent bans the later value i
            if later_max if v == i else later >> i & 1:
                return False
        if v == i:
            later_max = True
        later |= 1 << v
        nxt = v
    return len(s) >= 1


def is_c_class(s) -> bool:
    later, nxt = 0, -1
    for i in range(len(s) - 1, -1, -1):
        v = s[i]
        if not 0 <= v <= i:
            return False
        if v >= nxt >= 0 and later >> (i + 1) & 1:  # bans the value i + 1
            return False
        later |= 1 << v
        nxt = v
    return len(s) >= 1


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


def ref_is_member(class_id: ClassId, obj) -> bool:
    """The class's predicate on obj: a Perm for a permutation class, a
    sequence for the others."""
    return _PREDICATES[class_id](obj)
