"""Isomorphism signatures: the integer-table encoder against a tuple oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from spinetorsion.perms import ALL_PERMS, PERM_INDEX, SIGN, compose, inverse, sign
from spinetorsion.spine import _encode_seed, encode_gluings, triangulation_encoding
from spinetorsion.triangulation import Triangulation

from oracles import assert_valid_glue, complete_gluing_tables


def oracle_seed(trg, direction, t0, rho0):
    """Relabelled (gluing code, branch code) grown from one seed, on tuples."""
    new_of = {t0: 0}
    rho = {t0: rho0}
    order = [t0]
    glue_code = []
    cursor = 0
    while cursor < len(order):
        t = order[cursor]
        for f_new in range(4):
            f_old = inverse(rho[t])[f_new]
            t2, k = trg.glue[t][f_old]
            perm = ALL_PERMS[k]
            if t2 not in new_of:
                new_of[t2] = len(order)
                rho[t2] = compose(rho[t], inverse(perm))
                order.append(t2)
            perm_new = compose(rho[t2], compose(perm, inverse(rho[t])))
            glue_code.append((new_of[t2], PERM_INDEX[perm_new]))
        cursor += 1
    branch_code = []
    for t in order:
        rho_inv = inverse(rho[t])
        for i in range(4):
            for j in range(i + 1, 4):
                branch_code.append(1 if direction(t, rho_inv[i], rho_inv[j]) else 0)
    return tuple(glue_code), tuple(branch_code)


def oracle_encoding(trg, orientations, direction):
    """Least seed code over every orientation-positive seed, no early abort."""
    return min(oracle_seed(trg, direction, t0, rho0)
               for t0 in range(trg.tet_count) for rho0 in ALL_PERMS
               if orientations[t0] * sign(rho0) == 1)


@st.composite
def relabelled(draw, corpus):
    spine = corpus[draw(st.integers(0, len(corpus) - 1))]
    n = spine.tet_count
    tet_map = draw(st.permutations(range(n)))
    corner_perms = draw(st.lists(st.sampled_from(ALL_PERMS), min_size=n, max_size=n))
    other = spine.relabel(tet_map, corner_perms)
    assert_valid_glue(other.triangulation.glue)
    return spine, other


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_encoder_matches_tuple_oracle(corpus12, data):
    _spine, other = data.draw(relabelled(corpus12))
    trg = other.triangulation
    assert other.canonical_encoding() == oracle_encoding(
        trg, other.orientations, other.edge_direction)
    assert triangulation_encoding(trg) == oracle_encoding(
        trg, trg.orientations, lambda t, i, j: True)[0]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_encoding_invariant_under_relabel(corpus12, data):
    spine, other = data.draw(relabelled(corpus12))
    assert other.canonical_encoding() == spine.canonical_encoding()
    # The bare gluing code is invariant too once the orientation bits are
    # carried along (a Triangulation normalises tetrahedron 0 to +1).
    assert encode_gluings(other.triangulation.glue, other.orientations)[0] == \
        encode_gluings(spine.triangulation.glue, spine.orientations)[0]


def test_raw_gluing_encoding_matches_built_triangulation():
    # Every candidate of the unpruned 2-tetrahedron search.
    candidates = [[row[:] for row in glue] for glue in complete_gluing_tables(2)]
    assert len(candidates) == 648
    for glue in candidates:
        # Every candidate is a connected gluing, so it builds.
        assert_valid_glue(glue)
        trg = Triangulation([row[:] for row in glue])
        assert trg.orientations == (1, 1)
        assert encode_gluings(glue, (1, 1))[0] == triangulation_encoding(trg)


def seed_code(trg, t0, rho0):
    n = trg.tet_count
    return tuple(_encode_seed(trg.glue, n, t0, rho0, None)[0])


def orbit(trg):
    """The census orbit of a triangulation with every orientation bit +1:
    its gluing code from every seed (tetrahedron, even corner relabelling)."""
    assert trg.orientations == (1,) * trg.tet_count
    return {seed_code(trg, t0, rho0)
            for t0 in range(trg.tet_count) for rho0 in range(24) if SIGN[rho0] == 1}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_census_orbit_is_a_class_invariant(corpus12, data):
    # Even corner relabellings keep every orientation bit +1, as on every
    # census candidate, so seed (0, identity) is admissible on both sides.
    spine = corpus12[data.draw(st.integers(0, len(corpus12) - 1))]
    n = spine.tet_count
    tet_map = data.draw(st.permutations(range(n)))
    even = [p for p in ALL_PERMS if sign(p) == 1]
    corner_perms = data.draw(st.lists(st.sampled_from(even), min_size=n, max_size=n))
    trg, other = spine.triangulation, spine.relabel(tet_map, corner_perms).triangulation
    codes, code = orbit(trg), seed_code(other, 0, 0)
    assert code in codes
    # It is the code of the seed that the relabelling sends to (0, identity).
    t0 = tet_map.index(0)
    assert code == seed_code(trg, t0, PERM_INDEX[corner_perms[t0]])
    assert orbit(other) == codes
    # The 12n seeds fall into cosets of the automorphism group, one per code.
    assert 12 * n % len(codes) == 0
