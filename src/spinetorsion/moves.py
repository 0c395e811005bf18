"""Branched 2-3 and 3-2 moves, the invariance certificate, and transports.

A positive move replaces the two tetrahedra around a face class by three
tetrahedra around a new central edge; every edge class survives and the
new edge needs an orientation, constrained by the branching condition
(1 or 2 choices).  A negative move is the inverse, applicable at an
edge class of valence three lying in three distinct tetrahedra.

Both moves swap the two triangulations of one bipyramid with apexes
``a``, ``c`` and equator ``b``, ``d``, ``e``: the two tetrahedra
{a,b,d,e} and {c,b,d,e} around the equator face, and the three
tetrahedra {a,c,x,y} around the central edge ac.  A move gives each site
tetrahedron, before and after, the bipyramid labels of its corners, and
one rebuild derives the rest by matching label sets: where each external
face and its gluing go, which faces lie inside the bipyramid, the after
branching, and the cell map of every degree, which all transports read.

A variant of a move has a branching exactly when the directions of the
ten edges order the five labels linearly (Benedetti-Petronio, LNM 1653).
A move is listed as an unbuilt candidate (site, variant, order): its site
and that order, from source to sink, read off the before spine.  Edge
directions and the sink of every cell are read off the order.  A move is
built only when taken, and only then gets its ``Bipyramid``: the order
and the edge classes of the four tree edges that chains are read along.

The invariance certificate of a move is computed on the common
subdivision of the bipyramid by its centre: for each of its 21 internal
cells (1 vertex, 5 edges, 9 faces, 6 tetrahedra) the flow target is the
sink of the smallest containing cell of either triangulation, and the
certificate sums the signed differences of the two targets.  A null sum
certifies that torsion is unchanged by the move.  It depends on the
order alone, so it is computed once per order (at most 120).
"""

from functools import cached_property

from .errors import (MoveError, NotApplicable, SelfAdjacentFace, Stuck,
                     TransportFailure)
from .perms import ALL_PERMS, COMPOSE, INVERSE, PERM_INDEX, sign
from .rng import SplitMix64
from .spine import _CORNER_PAIRS, BranchedSpine
from .triangulation import _FACE_CORNERS, Triangulation

_EQ_LABELS = ("b", "d", "e")
_ROW_ORDER = ("v", "va", "vb", "vc", "vd", "ve",
              "vab", "vad", "vae", "vcb", "vcd", "vce",
              "vbe", "ved", "vdb",
              "vabe", "vaed", "vadb", "vcbe", "vced", "vcdb")


class Bipyramid:
    """Unfolded local model of a move taken: its branching order and the
    edge classes of its tree edges.

    ``order`` spells the five vertex labels from source to sink; every
    edge points from the label that comes first to the later one.
    ``edge_class`` maps the unordered label pair of each tree edge of
    ``_tree_chains`` (ab, ad, ae and cb) to its edge class in the before
    spine.
    """

    def __init__(self, order, edge_class):
        self.order = order
        self.edge_class = edge_class

    def directed(self, u, v):
        return self.order.index(u) < self.order.index(v)


def _linear_order(arrows):
    """The five labels from source to sink when the directed edges
    ``arrows`` ((u, v) for u -> v) order them linearly, i.e. the labels
    point to 4, 3, 2, 1 and 0 others; else None, as then some triangle is
    cyclic or some edge points both ways."""
    out = dict.fromkeys("abcde", 0)
    for u, _v in arrows:
        out[u] += 1
    order = "".join(sorted(out, key=out.get, reverse=True))
    return order if [out[x] for x in order] == [4, 3, 2, 1, 0] else None


class MoveInstance:
    """One performed move, with its before/after spines and cell map.

    The site tetrahedra of each side make up the bipyramid, listed as
    (tetrahedron, labels) pairs; the labels spell the bipyramid labels of
    its corners 0..3, e.g. "cbed" for a tetrahedron whose corner 0 is the
    apex c and corner 1 is b.

    ``cells[i]`` maps each i-cell of the before complex X to its index in
    the after one, or to None for a cell inside the bipyramid; the after
    cells outside its image are the new inner cells.  No cell changes its
    orientation, so the map has no signs; ``push`` carries vectors along it.
    """

    def __init__(self, direction, site, variant, new_edge_direction,
                 before, after, cells, bipyramid, site_before, site_after,
                 central_class_after):
        self.direction = direction          # "positive" or "negative"
        self.site = site                    # face class (positive) or edge class
        self.variant = variant              # index among the branched variants
        self.new_edge_direction = new_edge_direction  # +1 a->c, -1 c->a (positive)
        self.before = before
        self.after = after
        self.cells = cells                  # per degree: old cell -> new cell or None
        self.bipyramid = bipyramid
        self.site_before = site_before      # (tet, labels) of the bipyramid
        self.site_after = site_after        # before and after
        self.central_class_after = central_class_after    # edge ac (positive)
        self._carried = {}  # id(lifts) -> (lifts, out); see transport_homology

    @cached_property
    def _subdivision_paths(self):
        """(before tet, after tet, path) per sub-tetrahedron of the common
        subdivision of the bipyramid (see ``_site_tet_weights``): the site
        tetrahedra containing it on each side, and the edge chain of the
        path between their two flow targets."""
        bip = self.bipyramid
        chains = _tree_chains(bip, len(self.before.triangulation.edge_classes))

        def container(site, cell):
            return next((t, lab) for t, lab in site if set(cell) <= set(lab))

        out = []
        for apex in ("a", "c"):
            for pr in _PAIRS:
                t_bef, lab_bef = container(self.site_before, (apex,) + pr)
                t_aft, lab_aft = container(self.site_after, (apex,) + pr)
                out.append((t_bef, t_aft, [
                    x - y for x, y in zip(chains[_sink(bip.order, lab_bef)],
                                          chains[_sink(bip.order, lab_aft)])]))
        return tuple(out)


def push(cells, vec, fill, size):
    """The vector on ``size`` new cells that has the entry of ``vec`` at
    the image of each old cell under the cell map ``cells`` (one degree of
    ``MoveInstance.cells``) and ``fill`` elsewhere."""
    out = [fill] * size
    for old, new in enumerate(cells):
        if new is not None:
            out[new] = vec[old]
    return out


def describe_move(move):
    if move.direction == "positive":
        return "+face %d variant %d" % (move.site, move.variant)
    return "-edge %d" % move.site


def _check_site(index, count, kind):
    # A negative index would silently pick a class from the end.
    if not 0 <= index < count:
        raise NotApplicable("%s class %d out of range (%d %s classes)"
                            % (kind, index, count, kind))


# -- one rebuild for both moves ----------------------------------------------------


def _faces_by_labels(site):
    """Faces of the site tetrahedra keyed by their label sets: a set named
    once is a face of the bipyramid's boundary, one named twice lies inside."""
    faces = {}
    for t, lab in site:
        for f in range(4):
            faces.setdefault(frozenset(lab[:f] + lab[f + 1:]), []).append((t, f))
    return faces


def _follow(lab, lab2, f2):
    """Permutation index of the corner map from the tetrahedron labelled
    ``lab`` onto the one labelled ``lab2`` across their common face, which
    is face f2 of the second: each corner goes to the corner with its
    label, the one opposite the face to f2."""
    return PERM_INDEX[tuple(lab2.index(x) if x in lab2 else f2 for x in lab)]


def _pair_class(trg, site, u, v):
    """Edge class of the edge labelled u, v in a site, or None."""
    for t, lab in site:
        if u in lab and v in lab:
            return trg.edge_class_of(t, lab.index(u), lab.index(v))[0]
    return None


def _variants(spine, site):
    """The branching order of each variant of the move at ``site``, in order.

    Every face but the new inner ones keeps its before directions, and
    the ten triangles of the bipyramid are all its vertex triples: a
    variant has a branching exactly when its directions are linear.  A
    new central edge ac is tried a->c, then c->a; a negative site has it
    already, and its reverse makes eleven arrows, never linear.  A
    positive site always has one or two variants: its tetrahedra order
    {a,b,d,e} and {c,b,d,e} alike on the equator, so at most one
    direction of ac closes a cycle.
    """
    arrows = set()
    for t, lab in site[2]:  # the old site
        rk = spine.ranks[t]
        for i, j in _CORNER_PAIRS:
            arrows.add((lab[i], lab[j]) if rk[i] < rk[j] else (lab[j], lab[i]))
    orders = (_linear_order(arrows | {arrow}) for arrow in (("a", "c"), ("c", "a")))
    return [order for order in orders if order is not None]


def _rebuild(spine, site, variant, order):
    """The move of ``variant``, with branching order ``order``, at
    ``site``: the only place a move, its Bipyramid and its cell map
    (``MoveInstance.cells``) are built.

    A site is (direction, face or edge class, old site, new site): the two
    sides of the bipyramid as (tetrahedron, labels) lists.  The other
    tetrahedra keep their order: a positive move keeps their indices and
    appends one tetrahedron, a negative one numbers them first and appends
    the two new ones.  The after orientation bits are +1 on the positive
    site, whose labels are chosen so, and -s0 on the negative one, for s0
    the handedness of the labels of its first old tetrahedron.  A kept
    tetrahedron or face goes where the table sends it, an edge class where
    an edge of its fan in a kept tetrahedron goes, else to the site edge
    with its labels.
    """
    direction, site_class, old_site, new_site = site
    trg = spine.triangulation
    old_labels, new_labels = dict(old_site), dict(new_site)
    new_faces = _faces_by_labels(new_site)
    bip = Bipyramid(order, {frozenset(pair): _pair_class(trg, old_site, *pair)
                            for pair in ("ab", "ad", "ae", "cb")})
    survivors = [t for t in range(trg.tet_count) if t not in old_labels]
    if direction == "positive":
        index = {t: t for t in survivors}
        orientations = [1 if t in old_labels else o
                        for t, o in enumerate(spine.orientations)] + [1]
    else:
        index = {t: n for n, t in enumerate(survivors)}
        t, lab = old_site[0]
        s0 = spine.orientations[t] * sign([lab.index(x) for x in "abec"])
        orientations = [spine.orientations[t] for t in survivors] + [-s0, -s0]

    # Where each face outside the bipyramid's interior goes: (tetrahedron,
    # face, corner map index).  A boundary face goes to the face with its
    # labels on the other side; interior faces have no entry.
    moved = {(t, f): (n, f, 0) for t, n in index.items() for f in range(4)}
    for key, sides in _faces_by_labels(old_site).items():
        if len(sides) == 1:
            (t, f), = sides
            (nt, nf), = new_faces[key]
            moved[(t, f)] = (nt, nf, _follow(old_labels[t], new_labels[nt], nf))

    # Distinct outside faces move to distinct faces (distinct tetrahedra,
    # or distinct label sets on the boundary): no face can end up glued to
    # itself, and every face of the after table is written once.
    glue = [[None] * 4 for _ in range(len(orientations))]
    for (t, f), (nt, nf, lam) in moved.items():
        t2, k = trg.glue[t][f]
        nt2, _nf2, lam2 = moved[(t2, ALL_PERMS[k][f])]
        glue[nt][nf] = (nt2, COMPOSE[lam2][COMPOSE[k][INVERSE[lam]]])
    for sides in new_faces.values():
        if len(sides) == 2:
            (nt, nf), (nt2, nf2) = sides
            k = _follow(new_labels[nt], new_labels[nt2], nf2)
            glue[nt][nf], glue[nt2][nf2] = (nt2, k), (nt, INVERSE[k])
    # Nor can the build fail another check.  (a) It is connected: gluings
    # between outside tetrahedra are kept, each boundary face goes to the
    # new site tetrahedron with its label set, and those are glued along
    # their inner faces.  (b) It is orientable: the after bits, set by the
    # labels' handedness, make every gluing orientation-reversing, as
    # BranchedSpine._check_orientations checks.  (c) No edge walk comes
    # back reversed: the orientation fixes the sense of rotation around an
    # oriented edge, so it could only come back through the other side
    # face; it would then be its own reverse and, halfway, cross a face
    # glued to itself.
    after_trg = Triangulation(glue)

    central_after = _pair_class(after_trg, new_site, "a", "c")
    edges = []
    for fan in trg.edge_classes:
        kept = next(((index[t], i, j) for t, i, j, _enter, _exit in fan
                     if t in index), None)
        if kept is not None:
            edges.append(after_trg.edge_class_of(*kept)[0])
        else:  # None for a negative move's edge ac, as for central_after
            t, i, j = fan[0][:3]
            lab = old_labels[t]
            edges.append(_pair_class(after_trg, new_site, lab[i], lab[j]))
    faces = [after_trg.face_class_of[moved[side][0]][moved[side][1]]
             if side in moved else None for side, _ in trg.face_classes]
    cells = ([0], edges, faces, [index.get(t) for t in range(trg.tet_count)])

    old_of = {n: t for t, n in index.items()}
    branching = []
    for fan in after_trg.edge_classes:
        nt, i, j = fan[0][:3]
        if nt in old_of:
            d = spine.edge_direction(old_of[nt], i, j)
        else:
            d = bip.directed(new_labels[nt][i], new_labels[nt][j])
        branching.append(1 if d else -1)
    return MoveInstance(
        direction, site_class, variant,
        (1 if bip.directed("a", "c") else -1) if direction == "positive" else None,
        spine, BranchedSpine(after_trg, branching, orientations),
        cells, bip, old_site, new_site, central_after)


# -- positive move ---------------------------------------------------------------


def apply_positive(spine, face_class):
    """All branched 2-to-3 moves at a face class, one per valid orientation
    of the new central edge (1 or 2 results)."""
    site = _positive_site(spine, face_class)
    return [_rebuild(spine, site, variant, order)
            for variant, order in enumerate(_variants(spine, site))]


def _positive_site(spine, face_class):
    """The site of the 2-to-3 move at a face class (see ``_rebuild``)."""
    trg = spine.triangulation
    _check_site(face_class, len(trg.face_classes), "face")
    (t0, f0), (t1, f1) = trg.face_classes[face_class]
    if t0 == t1:
        raise SelfAdjacentFace(
            "face class %d has both sides on tetrahedron %d" % (face_class, t0))
    perm = ALL_PERMS[trg.glue[t0][f0][1]]
    p, q, r = _FACE_CORNERS[f0]
    # Handedness: order the equator so that the three new tetrahedra,
    # labelled (a, c, x, y), are positively oriented.
    cyc = (p, q, r) if spine.orientations[t0] * sign((f0, p, q, r)) == 1 \
        else (p, r, q)
    lab0, lab1 = ["a"] * 4, ["c"] * 4
    for x, label in zip(cyc, _EQ_LABELS):
        lab0[x] = lab1[perm[x]] = label
    slots = (t0, t1, trg.tet_count)
    new_site = [(slots[i], "ac" + _EQ_LABELS[i] + _EQ_LABELS[(i + 1) % 3])
                for i in range(3)]
    return ("positive", face_class,
            [(t0, "".join(lab0)), (t1, "".join(lab1))], new_site)


def positive_move(spine, face_class, variant=0):
    """The ``variant``-th branched 2-to-3 move at a face class, the only
    variant built.

    MoveError when the variant is out of range, instead of a bare index
    error.
    """
    site = _positive_site(spine, face_class)
    variants = _variants(spine, site)
    if not 0 <= variant < len(variants):
        raise MoveError("variant %d out of range (%d available)"
                        % (variant, len(variants)))
    return _rebuild(spine, site, variant, variants[variant])


# -- negative move ---------------------------------------------------------------


def apply_negative(spine, edge_class):
    """The branched 3-to-2 move at a valence-three edge class."""
    site = _negative_site(spine, edge_class)
    variants = _variants(spine, site)
    if not variants:
        raise NotApplicable("restricted branching is not a branching "
                            "(the new face is cyclic)")
    return _rebuild(spine, site, 0, variants[0])


def _negative_site(spine, edge_class):
    """The site of the 3-to-2 move at an edge class (see ``_rebuild``);
    NotApplicable unless the class has valence three in three distinct
    tetrahedra."""
    trg = spine.triangulation
    _check_site(edge_class, len(trg.edge_classes), "edge")
    fan = trg.edge_classes[edge_class]
    if len(fan) != 3:
        raise NotApplicable(
            "edge class %d has valence %d, need 3" % (edge_class, len(fan)))
    if len({step[0] for step in fan}) != 3:
        raise NotApplicable(
            "edge class %d does not meet three distinct tetrahedra" % edge_class)
    if spine.branching[edge_class] == -1:
        # Work with the branching direction: swap the ends of each step.
        fan = [(t, j, i, enter, exit_) for (t, i, j, enter, exit_) in fan]
    # The p-th tetrahedron of the fan is {a, c, EQ[p], EQ[p-1]}: the walk
    # enters it through the face opposite EQ[p] and leaves opposite EQ[p-1].
    old_site = []
    for p, (t, ia, jc, enter, exit_) in enumerate(fan):
        lab = [None] * 4
        lab[ia], lab[jc], lab[enter], lab[exit_] = \
            "a", "c", _EQ_LABELS[p], _EQ_LABELS[p - 1]
        old_site.append((t, "".join(lab)))
    n = trg.tet_count - 3
    return ("negative", edge_class, old_site, [(n, "abde"), (n + 1, "cbed")])


# -- invariance certificate -------------------------------------------------------


class HCycleReport:
    """The 21-row certificate table of a move.

    ``rows``: list of (simplex label, epsilon, end0, end1); the boundary
    of a row is epsilon * (end0 - end1) as a formal sum of the external
    vertex labels, ``total`` collects all rows, and ``is_null`` certifies
    the move torsion-safe.  The three depend only on the branching order
    of the ``bipyramid``, so they are looked up, computed once per order;
    each report has its own ``rows`` and ``total``.
    ``h_chain`` is the certificate cycle on the edge classes of the
    ``before`` spine and ``h_class`` its class in the first homology of the
    quotient complex, in Smith coordinates of ``before.group`` (always
    defined; zero when is_null).  Both are computed on first read, so the
    certificate alone builds no chain and no Smith form.
    """

    def __init__(self, rows, total, is_null, before, bipyramid):
        self.rows = rows
        self.total = total
        self.is_null = is_null
        self.before = before
        self.bipyramid = bipyramid

    @cached_property
    def h_chain(self):
        # The rows sum eps * (chain of end1 - chain of end0) over fixed
        # tree paths to the root apex, which is minus the total at each
        # end: a null total lifts to zero.
        n = len(self.before.triangulation.edge_classes)
        chains = _tree_chains(self.bipyramid, n)
        h_chain = [0] * n
        for v, c in self.total.items():
            h_chain = [h - c * x for h, x in zip(h_chain, chains[v])]
        return h_chain

    @cached_property
    def h_class(self):
        return self.before.group.class_of_vector(self.h_chain)


def _simplex_cells(label):
    """The vertices of the cell of the 2-tet triangulation and of the
    3-tet one containing the interior of an internal simplex of the
    common subdivision."""
    verts = label[1:]
    # Before: the two tetrahedra are {a}+equator and {c}+equator, sharing
    # the equator face.  After: central edge ac, faces {a,c,x}, tets
    # {a,c,x,y}.
    apex = "a" if "a" in verts else "c" if "c" in verts else ""
    return apex + "bde", "ac" + "".join(x for x in verts if x in "bde")


def _sink(order, verts):
    """The vertex of a bipyramid simplex that its other vertices point to,
    under the branching order ``order``."""
    return max(verts, key=order.index)


def _tree_chains(bip, n):
    """Edge chains of the fixed tree paths from each bipyramid vertex to
    the root apex a, through external edges: b, d and e straight to a,
    c through b.  Edge cells of X are oriented by the branching, so a
    traversal contributes +1 along the branching direction and -1
    against it."""
    chains = {"a": [0] * n}
    for label in _EQ_LABELS:
        vec = [0] * n
        cls = bip.edge_class[frozenset(("a", label))]
        vec[cls] += -1 if bip.directed("a", label) else 1
        chains[label] = vec
    vec = list(chains["b"])
    cls = bip.edge_class[frozenset(("c", "b"))]
    vec[cls] += 1 if bip.directed("c", "b") else -1
    chains["c"] = vec
    return chains


# Certificates by branching order of the bipyramid.
_CERTIFICATES = {}


def _certificate(order):
    """(rows, total, is_null) of a branching order, computed once per
    order; callers copy what they hand out."""
    cert = _CERTIFICATES.get(order)
    if cert is None:
        rows = []
        total = {}
        for label in _ROW_ORDER:
            eps = (-1) ** (len(label) - 1)
            e0, e1 = (_sink(order, cell) for cell in _simplex_cells(label))
            rows.append((label, eps, e0, e1))
            if e0 != e1:
                total[e0] = total.get(e0, 0) + eps
                total[e1] = total.get(e1, 0) - eps
        total = {k: v for k, v in total.items() if v}
        cert = _CERTIFICATES[order] = rows, total, not total
    return cert


def h_cycle_check(move):
    """Certificate table of a move instance; see HCycleReport."""
    rows, total, is_null = _certificate(move.bipyramid.order)
    return HCycleReport(list(rows), dict(total), is_null, move.before,
                        move.bipyramid)


# -- rigidity and walks -----------------------------------------------------------


def _candidates(spine, h_null_only=False):
    """Every move of a spine as an unbuilt (site, variant, branching
    order), in canonical order: positive by face class and variant, then
    negative by edge class.  With ``h_null_only``, only the variants whose
    certificate is null; variants keep their numbers either way."""
    trg = spine.triangulation
    for site_at, count in ((_positive_site, len(trg.face_classes)),
                           (_negative_site, len(trg.edge_classes))):
        for k in range(count):
            try:
                site = site_at(spine, k)
            except (SelfAdjacentFace, NotApplicable):
                continue
            for variant, order in enumerate(_variants(spine, site)):
                if not h_null_only or _certificate(order)[2]:
                    yield site, variant, order


def is_rigid(spine):
    """True when no branched positive move applies at any face class: when
    every face class has both sides on one tetrahedron, as a positive move
    at any other face class has a variant (see ``_variants``)."""
    return all(t0 == t1 for (t0, _f0), (t1, _f1) in spine.triangulation.face_classes)


def available_moves(spine, h_null_only=False):
    """All applicable moves in canonical order (positive by face class and
    variant, then negative by edge class), every candidate built.  With
    ``h_null_only`` each candidate is certified before it is built."""
    return [_rebuild(spine, *cand) for cand in _candidates(spine, h_null_only)]


def random_walk(spine, steps, seed, h_null_only=False, max_tets=None):
    """A reproducible walk of applicable moves.

    The candidate list at each step is deterministic and the choice is
    driven by SplitMix64(seed), so identical inputs replay identical
    walks.  Only the move taken is built.  ``max_tets`` optionally drops
    the candidates whose after spine would have more tetrahedra than
    that.  Raises Stuck when no move applies.
    """
    rng = SplitMix64(seed)
    walk = []
    cur = spine
    for _ in range(steps):
        # A move replaces the old site's tetrahedra by the new site's.
        cands = [cand for cand in _candidates(cur, h_null_only)
                 if max_tets is None
                 or cur.tet_count + len(cand[0][3]) - len(cand[0][2]) <= max_tets]
        if not cands:
            raise Stuck("no applicable move after %d steps" % len(walk))
        move = _rebuild(cur, *cands[rng.below(len(cands))])
        walk.append(move)
        cur = move.after
    return walk


# -- transports across a move -----------------------------------------------------


def transport_representation(move, rep):
    """The representation on the after spine pulled back along the move.

    Edge classes outside the bipyramid keep their exponents, pushed along
    the edge map ``move.cells[1]``; the central edge of a positive move,
    the one after edge outside its image, gets the exponent of the tree
    path from c to a, through b, which is its class in the common model.
    """
    from .complexes import Representation
    G2 = move.after.group
    exponents = push(move.cells[1], rep.exponents, None, G2.n_generators)
    if move.direction == "positive":
        # The central generator is the class of the new edge as oriented
        # by the branching: the path from c to a, reversed when a -> c.
        bip = move.bipyramid
        path = _tree_chains(bip, len(rep.exponents))["c"]
        if bip.directed("a", "c"):
            path = [-x for x in path]
        exponents[move.central_class_after] = rep.exponent_of_vector(path)
    return Representation(G2, rep.field, exponents, rep.kind, rep.character)


def _zero_out(field, vec, coords, columns):
    """Subtract a combination of ``columns`` from ``vec`` so that the
    listed coordinates vanish; returns the new vector or None."""
    rhs = [vec[c] for c in coords]
    if all(x.is_zero() for x in rhs):
        return vec
    sol = field.solve([[col[c] for col in columns] for c in coords], rhs)
    if sol is None:
        return None
    out = list(vec)
    for col, coeff in zip(columns, sol):
        if coeff.is_zero():
            continue
        for i in range(len(out)):
            out[i] = out[i] - coeff * col[i]
    return out


def transport_homology(move, before, after, lifts):
    """Carry homology lifts across a move along its cell map.

    ``before`` and ``after`` are the chain complexes of the move's two
    spines over one field: the TwistedComplex of a representation and of
    its transport, or the rational complexes of the two CellComplexX.
    Every chain is pushed along ``move.cells`` of its degree.  Degree 0
    is the base point, which the move keeps.  A cycle of degree 1 or 2
    first clears its coordinates on the site cells of its degree (those
    the cell map sends to None) with the boundaries of the site cells one
    degree up: the central edge of a negative move with the boundaries of
    the faces inside the site, those faces with the boundaries of the site
    tetrahedra.  Degree-3 cycles keep their outside coefficients and the
    new site coefficients are re-solved in the after complex.  Raises
    TransportFailure, with the ``degree`` of the class, when a class
    cannot be resolved.

    The move keeps the lifts it carried, keyed by the lifts object, so the
    suites of several representations over one walk carry each orientation
    once.  A failed transport keeps nothing.
    """
    key = id(lifts)
    if key not in move._carried:
        move._carried[key] = lifts, _carry(move, before, after, lifts)
    return move._carried[key][1]


def _site_cells(move, deg):
    """The before cells of degree ``deg`` inside the bipyramid.  Site
    tetrahedra come in ``move.site_before`` order, which picks the
    solution that clears a degree-2 class."""
    if deg == 3:
        return [t for t, _ in move.site_before]
    return [k for k, new in enumerate(move.cells[deg]) if new is None]


def _carry(move, before, after, lifts):
    """The transport of ``transport_homology``, computed afresh."""
    field = before.field
    zero = after.field.zero
    out = {}
    try:
        for deg, vecs in lifts.items():
            if not vecs:
                continue
            if deg in (1, 2):
                coords = _site_cells(move, deg)
                d = before.d2 if deg == 1 else before.d3
                cols = [[row[j] for row in d] for j in _site_cells(move, deg + 1)]
            new_vecs = out[deg] = []
            for vec in vecs:
                if deg in (1, 2):
                    vec = _zero_out(field, vec, coords, cols)
                    if vec is None:
                        raise TransportFailure(
                            "degree-%d class stuck on %s" % (
                                deg, "the central edge" if deg == 1 else "the site"))
                w = push(move.cells[deg], vec, zero, after.dims[deg])
                if deg == 3:
                    # Site coefficients come from the common-subdivision
                    # weights; the cycle check reads only the nonzero d3
                    # entries in the columns where the chain is nonzero.
                    for j, c in _site_tet_weights(move, before, vec).items():
                        w[j] = c
                    acc = {}
                    for j, c in enumerate(w):
                        if c.is_zero():
                            continue
                        for r, x in after._d3_columns[j]:
                            acc[r] = acc[r] + x * c if r in acc else x * c
                    if any(not a.is_zero() for a in acc.values()):
                        raise TransportFailure(
                            "transported degree-3 chain is not a cycle")
                new_vecs.append(w)
    except TransportFailure as exc:  # a class of degree deg is stuck
        exc.degree = deg
        raise
    return out


_PAIRS = (("b", "d"), ("d", "e"), ("e", "b"))


def _site_tet_weights(move, before, vec):
    """After-side site coefficients of a degree-3 cycle, via the bipyramid.

    Every sub-tetrahedron of the common subdivision lies in one cell of
    each triangulation of the bipyramid; its two preferred lifts differ
    by the class of a path between the two flow targets.  The after
    coefficient on a cell is the before coefficient of the other
    container times the image of that path, and must agree across the
    sub-tetrahedra of the cell.  The image of the path is
    ``before.path_image``.
    """
    weights = {}
    for t_bef, target, path in move._subdivision_paths:
        coeff = vec[t_bef] * before.path_image(path)
        if target in weights:
            if not weights[target] == coeff:
                raise TransportFailure(
                    "inconsistent subdivision weights on the site")
        else:
            weights[target] = coeff
    return weights


def transport_rational_homology(move, x_before, x_after, olifts):
    """``transport_homology`` over the rational complexes of the two X."""
    return transport_homology(move, x_before.rational_complex,
                              x_after.rational_complex, olifts)
