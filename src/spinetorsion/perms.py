"""Permutations of the corner labels {0,1,2,3}, stored as 4-tuples of images.

The tables COMPOSE, INVERSE and SIGN act on indices into ALL_PERMS (identity
first), so hot loops compose and invert by indexing instead of building tuples.
"""

from itertools import permutations

ALL_PERMS = tuple(permutations(range(4)))


def compose(p, q):
    """Permutation p∘q: first apply q, then p."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


def inverse(p):
    inv = [0, 0, 0, 0]
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def sign(p):
    """Parity of a 4-permutation, a tuple or a list: +1 even, -1 odd."""
    return SIGN[PERM_INDEX[tuple(p)]]


def sign3(triple_a, triple_b):
    """Parity of the bijection sending the ordering triple_a to triple_b.

    Both arguments must be orderings of the same 3-element set.
    """
    # Map positions of triple_a entries into triple_b and take the parity.
    pos = [triple_b.index(x) for x in triple_a]
    s = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if pos[i] > pos[j]:
                s = -s
    return s


PERM_INDEX = {p: i for i, p in enumerate(ALL_PERMS)}
COMPOSE = tuple(tuple(PERM_INDEX[compose(p, q)] for q in ALL_PERMS) for p in ALL_PERMS)
"""``COMPOSE[i][j]`` is the index of ALL_PERMS[i]∘ALL_PERMS[j]."""
INVERSE = tuple(PERM_INDEX[inverse(p)] for p in ALL_PERMS)
SIGN = tuple((-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
             for p in ALL_PERMS)
"""``SIGN[i]`` is the parity of ALL_PERMS[i], counted by inversions."""
