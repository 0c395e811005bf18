"""Euler-chain class and the maw cochain of a branched spine.

The difference of the positive and negative spiders is a 1-cycle in the
one-vertex quotient complex; its class is computed cell by cell.  Each
dual cell contributes the class of a source-to-sink path inside it, with
the sign (-1)^dim of the spine cell: a region contributes its whole edge
generator, a spine edge (dual face) contributes minus the long edge of
the face, a spine vertex (dual tetrahedron) contributes its
source-to-sink edge.  Path choices inside a face or tetrahedron agree in
homology because the differences are face relators.

The maw field along the singular set points from the two-sheeted to the
one-sheeted side; at each spine vertex it is tangent to the boundary of
exactly two opposite regions, and the region cochain is
c(R) = 1 - n(R)/2 with n(R) the number of tangency corners of R.  The
two tangent regions at a vertex are dual to an opposite pair of edges of
the dual tetrahedron picked by the branching (see ``tangent_edges``);
the pinning of this vertex-corner rule is validated by
``pd_consistency``, which checks that the cochain, reinterpreted through
the cell duality as a 1-cycle, is homologous to the chain class.
"""

from .complexes import SpiderAnchors


class EulerData:
    def __init__(self, chain_class, cochain, tangency_counts):
        self.chain_class = chain_class          # (free coords, torsion coords)
        self.cochain = cochain                  # region -> int, 1 - n/2
        self.tangency_counts = tangency_counts  # region -> n(R)


def _chain_vector(spine):
    """Integer 1-chain of the signed spider difference, on edge classes."""
    trg = spine.triangulation
    n = len(trg.edge_classes)
    vec = [0] * n
    for k in range(n):
        vec[k] += 1  # region cells: the whole oriented edge, sign +1
    for fc in range(len(trg.face_classes)):
        (t, f), _ = trg.face_classes[fc]
        s, _m, k = spine.face_roles(t, f)
        cls, sgn = spine.oriented_class(t, s, k)
        vec[cls] -= sgn  # spine edges: minus the long source-to-sink edge
    for t in range(trg.tet_count):
        r0, _r1, _r2, r3 = spine.corners_by_rank(t)
        cls, sgn = spine.oriented_class(t, r0, r3)
        vec[cls] += sgn  # spine vertices: the source-to-sink edge
    return vec


def euler_chain_class(spine):
    """The class of the spider-difference cycle in H_1 of the quotient complex,
    in Smith coordinates (free part, torsion part)."""
    return spine.group.class_of_vector(_chain_vector(spine))


def tangent_edges(spine, t):
    """The two opposite tetrahedron edges whose dual regions are tangent to
    the maw field at the spine vertex dual to tetrahedron t.

    With corners ranked source, first middle, second middle, sink, the
    pair is (source, second middle) and (first middle, sink): each edge
    is half of a two-step source-to-sink route through a middle vertex.
    Of the three opposite pairs this is the only one for which every
    tangency count comes out even, and it makes ``pd_consistency`` hold
    with the positive sign across the census corpus.
    """
    r0, r1, r2, r3 = spine.corners_by_rank(t)
    return ((r0, r2), (r1, r3))


def maw_cochain(spine):
    """(cochain c, tangency counts n) per region; c(R) = 1 - n(R)/2."""
    trg = spine.triangulation
    counts = [0] * len(trg.edge_classes)
    for t in range(trg.tet_count):
        for (u, v) in tangent_edges(spine, t):
            cls, _ = spine.oriented_class(t, u, v)
            counts[cls] += 1
    cochain = []
    for n in counts:
        assert n % 2 == 0, "odd tangency count; vertex-corner rule broken"
        cochain.append(1 - n // 2)
    return cochain, counts


def euler_data(spine):
    cochain, counts = maw_cochain(spine)
    return EulerData(euler_chain_class(spine), cochain, counts)


def path_choice_independence(spine):
    """All source-to-sink routes in every face and tetrahedron agree in H_1.

    The face routes differ by the face relator; tetrahedron routes by
    combinations of its faces' relators.  Returns True when every
    difference projects to zero.
    """
    group = spine.group
    trg = spine.triangulation
    n = group.n_generators
    for fc in range(len(trg.face_classes)):
        (t, f), _ = trg.face_classes[fc]
        s, m, k = spine.face_roles(t, f)
        via_m = [0] * n
        for (u, v) in ((s, m), (m, k)):
            cls, sgn = spine.oriented_class(t, u, v)
            via_m[cls] += sgn
        direct = [0] * n
        cls, sgn = spine.oriented_class(t, s, k)
        direct[cls] += sgn
        if not group.is_zero_class([a - b for a, b in zip(via_m, direct)]):
            return False
    anchors = SpiderAnchors(spine, group.complex)
    for t in range(trg.tet_count):
        vecs = [group.abelianized_word(w) for w in anchors.tet_path_words(t)]
        for v in vecs[1:]:
            if not group.is_zero_class([a - b for a, b in zip(v, vecs[0])]):
                return False
    return True


def pd_consistency(spine):
    """The cochain agrees with the chain class through the cell duality.

    Regions are dual to the 1-cells of the quotient complex, so the
    integer cochain is also a 1-chain there (a cycle, the complex having
    one vertex); consistency means it is homologous to the spider
    difference, which pins the vertex-corner rule of the maw field.
    """
    cochain, _ = maw_cochain(spine)
    diff = [a - b for a, b in zip(cochain, _chain_vector(spine))]
    return spine.group.is_zero_class(diff)
