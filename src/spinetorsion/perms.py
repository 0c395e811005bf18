"""Permutations of the corner labels {0,1,2,3}, stored as 4-tuples of images.

The tables COMPOSE, INVERSE and SIGN act on indices into ALL_PERMS (identity
first), so hot loops compose and invert by indexing instead of building tuples.
``parity`` is the one sign routine: SIGN, face orientations and the torsion
signs of cell orders all read it.
"""

from itertools import combinations, permutations

ALL_PERMS = tuple(permutations(range(4)))


def compose(p, q):
    """Permutation p∘q: first apply q, then p."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


def inverse(p):
    inv = [0, 0, 0, 0]
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def parity(seq):
    """The sign of the permutation that sorts ``seq``, a sequence of
    distinct comparable items: +1 for an even number of inversions, -1 for
    an odd one."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def sign(p):
    """Parity of a 4-permutation, a tuple or a list: +1 even, -1 odd."""
    return SIGN[PERM_INDEX[tuple(p)]]


PERM_INDEX = {p: i for i, p in enumerate(ALL_PERMS)}
COMPOSE = tuple(tuple(PERM_INDEX[compose(p, q)] for q in ALL_PERMS) for p in ALL_PERMS)
"""``COMPOSE[i][j]`` is the index of ALL_PERMS[i]∘ALL_PERMS[j]."""
INVERSE = tuple(PERM_INDEX[inverse(p)] for p in ALL_PERMS)
SIGN = tuple(parity(p) for p in ALL_PERMS)
"""``SIGN[i]`` is the parity of ALL_PERMS[i]."""
