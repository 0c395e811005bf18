"""Branched 2-3 and 3-2 moves, the invariance certificate, and transports.

A positive move replaces the two tetrahedra around a face class by three
tetrahedra around a new central edge; every edge class survives and the
new edge needs an orientation, constrained by the branching condition
(0, 1 or 2 choices).  A negative move is the inverse, applicable at an
edge class of valence three lying in three distinct tetrahedra.

Each move carries an unfolded local model of the bipyramid where it
happens: five vertex labels (apexes ``a``, ``c`` and equator ``b``,
``d``, ``e``), the branching directions of its ten edges, and cell
correspondences between the two triangulations of the bipyramid.  The
invariance certificate of a move is computed on the common subdivision
of the bipyramid by its centre: for each of its 21 internal cells (1
vertex, 5 edges, 9 faces, 6 tetrahedra) the flow target is the sink of
the smallest containing cell of either triangulation, and the
certificate sums the signed differences of the two targets.  A null sum
certifies that torsion is unchanged by the move.
"""

from .errors import (CyclicTriangle, Disconnected, MoveError, NonOrientable,
                     NonStandardDual, NotApplicable, ResultNonStandard,
                     SelfAdjacentFace, Stuck, TransportFailure)
from .perms import inverse, sign
from .rng import SplitMix64
from .spine import BranchedSpine
from .triangulation import Triangulation, _face_corners

_EQ_LABELS = ("b", "d", "e")
_ROW_ORDER = ("v", "va", "vb", "vc", "vd", "ve",
              "vab", "vad", "vae", "vcb", "vcd", "vce",
              "vbe", "ved", "vdb",
              "vabe", "vaed", "vadb", "vcbe", "vced", "vcdb")


class Bipyramid:
    """Unfolded local model: vertex labels, edge directions, edge classes.

    ``dirs`` maps an ordered label pair to True when the branching points
    from the first to the second.  ``edge_class`` maps unordered external
    label pairs to (edge class of the before spine, +-1), the sign saying
    whether the direction first->second agrees with the class direction.
    """

    def __init__(self, dirs, edge_class):
        self.dirs = dirs
        self.edge_class = edge_class

    def directed(self, u, v):
        if (u, v) in self.dirs:
            return self.dirs[(u, v)]
        return not self.dirs[(v, u)]


class MoveInstance:
    """One performed move, with its before/after spines and correspondences."""

    def __init__(self, direction, site, variant, new_edge_direction,
                 before, after, tet_map, edge_map, face_map, bipyramid,
                 site_tets_before, site_tets_after,
                 vanished_faces, created_faces,
                 central_class_before=None, central_class_after=None):
        self.direction = direction          # "positive" or "negative"
        self.site = site                    # face class (positive) or edge class
        self.variant = variant              # index among the returned instances
        self.new_edge_direction = new_edge_direction  # +1 apex0->apex1 (positive)
        self.before = before
        self.after = after
        self.tet_map = tet_map              # old tet -> new tet, surviving only
        self.edge_map = edge_map            # old edge class -> new edge class
        self.face_map = face_map            # old face class -> new face class
        self.bipyramid = bipyramid
        self.site_tets_before = site_tets_before
        self.site_tets_after = site_tets_after
        self.vanished_faces = vanished_faces    # before face classes that die
        self.created_faces = created_faces      # after face classes that appear
        self.central_class_before = central_class_before
        self.central_class_after = central_class_after


def describe_move(move):
    if move.direction == "positive":
        return "+face %d variant %d" % (move.site, move.variant)
    return "-edge %d" % move.site


def _check_site(index, count, kind):
    # A negative index would silently pick a class from the end.
    if not 0 <= index < count:
        raise NotApplicable("%s class %d out of range (%d %s classes)"
                            % (kind, index, count, kind))


# -- positive move ---------------------------------------------------------------


def apply_positive(spine, face_class):
    """All branched 2-to-3 moves at a face class, one per valid orientation
    of the new central edge (0, 1 or 2 results)."""
    trg = spine.triangulation
    _check_site(face_class, len(trg.face_classes), "face")
    (t0, f0), (t1, f1) = trg.face_classes[face_class]
    if t0 == t1:
        raise SelfAdjacentFace(
            "face class %d has both sides on tetrahedron %d" % (face_class, t0))
    perm = trg.gluings[(t0, f0)][2]
    p, q, r = _face_corners(f0)
    # Handedness: order the equator cycle so the three new tetrahedra,
    # labelled (apex0, apex1, x, y), are positively oriented.
    s1 = spine.orientations[t0] * sign((f0, p, q, r))
    cyc = (p, q, r) if s1 == 1 else (p, r, q)

    T = trg.tet_count
    slots = (t0, t1, T)  # the three new tetrahedra
    new_count = T + 1

    def pair(i):
        return cyc[i], cyc[(i + 1) % 3]

    # Relocation of the old external faces into the new tetrahedra.
    reloc = {}
    for qidx in range(3):
        x = cyc[qidx]
        y, z = pair((qidx + 1) % 3)
        n = slots[(qidx + 1) % 3]
        lam_top = {f0: 0, y: 2, z: 3, x: 1}
        reloc[(t0, x)] = (n, 1, lam_top)
        lam_bot = {f1: 1, perm[y]: 2, perm[z]: 3, perm[x]: 0}
        reloc[(t1, perm[x])] = (n, 0, lam_bot)

    gluings = {}
    done = set()
    for (t, f), (t2, f2, g) in trg.gluings.items():
        if (t, f) in done or (t2, f2) in done:
            continue
        if (t, f) in ((t0, f0), (t1, f1)):
            continue
        done.add((t, f))
        done.add((t2, f2))
        if (t, f) in reloc:
            nt, nf, lam = reloc[(t, f)]
        else:
            nt, nf, lam = t, f, {i: i for i in range(4)}
        if (t2, f2) in reloc:
            nt2, nf2, lam2 = reloc[(t2, f2)]
        else:
            nt2, nf2, lam2 = t2, f2, {i: i for i in range(4)}
        lam_inv = {v: k for k, v in lam.items()}
        newg = tuple(lam2[g[lam_inv[i]]] for i in range(4))
        gluings[(nt, nf)] = (nt2, nf2, newg)
        gluings[(nt2, nf2)] = (nt, nf, inverse(newg))
    for i in range(3):
        a_t, b_t = slots[i], slots[(i + 1) % 3]
        g = (0, 1, 3, 2)
        gluings[(a_t, 2)] = (b_t, 3, g)
        gluings[(b_t, 3)] = (a_t, 2, inverse(g))

    try:
        after_trg = Triangulation(new_count, gluings)
    except (NonStandardDual, NonOrientable, Disconnected) as exc:
        raise ResultNonStandard(str(exc))

    # Old preimages of the new tetrahedron corners.
    corner_pre = {}
    for i in range(3):
        x, y = pair(i)
        corner_pre[slots[i]] = {0: (t0, f0), 1: (t1, f1, "apex1"),
                                2: (t0, x), 3: (t0, y)}

    def old_edge_direction(nt, ni, nj):
        """Direction of a non-central new edge, read off the before spine."""
        if nt not in corner_pre:
            return spine.edge_direction(nt, ni, nj)
        i_, j_ = sorted((ni, nj))
        x, y = pair(slots.index(nt))
        table = {(0, 2): (t0, f0, x), (0, 3): (t0, f0, y),
                 (2, 3): (t0, x, y),
                 (1, 2): (t1, f1, perm[x]), (1, 3): (t1, f1, perm[y])}
        ot, oi, oj = table[(i_, j_)]
        d = spine.edge_direction(ot, oi, oj)
        return d if (i_, j_) == (ni, nj) else not d

    central = None
    for cls in after_trg.edge_classes:
        nt, ni, nj = cls.members[0]
        if nt in slots and {ni, nj} == {0, 1}:
            central = cls.index
            break
    assert central is not None

    orientations = list(spine.orientations) + [1]
    for s_ in slots:
        orientations[s_] = 1

    results = []
    for variant, new_dir in enumerate((1, -1)):
        branching = []
        ok = True
        for cls in after_trg.edge_classes:
            if cls.index == central:
                nt, ni, nj = cls.members[0]
                forward = (ni, nj) == (0, 1)
                branching.append(1 if (forward == (new_dir == 1)) else -1)
                continue
            nt, ni, nj = cls.members[0]
            branching.append(1 if old_edge_direction(nt, ni, nj) else -1)
        try:
            after = BranchedSpine(after_trg, branching, orientations)
        except CyclicTriangle:
            continue
        except NonStandardDual as exc:
            raise ResultNonStandard(str(exc))

        tet_map = {t: t for t in range(T) if t not in (t0, t1)}
        edge_map = {}
        for k, old_cls in enumerate(trg.edge_classes):
            member = None
            for (ot, oi, oj) in old_cls.members:
                if ot not in (t0, t1):
                    member = (ot, oi, oj)
                    break
            if member is None:
                ot, oi, oj = old_cls.members[0]
                member = _forward_edge_positive(ot, oi, oj, t0, t1, f0, f1,
                                                perm, cyc, slots)
            edge_map[k] = after_trg.edge_class_of[member][0]
        face_map = {}
        for k, ((ft, ff), _) in enumerate(trg.face_classes):
            if k == face_class:
                continue
            if (ft, ff) in reloc:
                nt, nf, _ = reloc[(ft, ff)]
                face_map[k] = after_trg.face_class_of[(nt, nf)]
            else:
                face_map[k] = after_trg.face_class_of[(ft, ff)]
        created = sorted({after_trg.face_class_of[(slots[i], 2)]
                          for i in range(3)})

        bdirs = {}
        labels = dict(zip(_EQ_LABELS, cyc))
        bec = {}
        for li, x in labels.items():
            bdirs[("a", li)] = spine.edge_direction(t0, f0, x)
            bec[frozenset(("a", li))] = spine.oriented_class(t0, f0, x)
            bdirs[("c", li)] = spine.edge_direction(t1, f1, perm[x])
            bec[frozenset(("c", li))] = spine.oriented_class(t1, f1, perm[x])
        for i in range(3):
            u, v = _EQ_LABELS[i], _EQ_LABELS[(i + 1) % 3]
            bdirs[(u, v)] = spine.edge_direction(t0, labels[u], labels[v])
            bec[frozenset((u, v))] = spine.oriented_class(t0, labels[u], labels[v])
        bdirs[("a", "c")] = new_dir == 1
        bip = Bipyramid(bdirs, bec)

        results.append(MoveInstance(
            "positive", face_class, len(results), new_dir, spine, after,
            tet_map, edge_map, face_map, bip,
            (t0, t1), slots, (face_class,), tuple(created),
            central_class_before=None, central_class_after=central))
    return results


def _forward_edge_positive(ot, oi, oj, t0, t1, f0, f1, perm, cyc, slots):
    """Image of an old site edge under the 2-3 relocation."""
    def pair(i):
        return cyc[i], cyc[(i + 1) % 3]

    if ot == t1:
        pinv = inverse(perm)
        if f1 in (oi, oj):
            u = pinv[oj if oi == f1 else oi]
            for i in range(3):
                x, y = pair(i)
                if u == x:
                    return (slots[i], 1, 2)
                if u == y:
                    return (slots[i], 1, 3)
        oi, oj = pinv[oi], pinv[oj]
        ot = t0
    if f0 in (oi, oj):
        u = oj if oi == f0 else oi
        for i in range(3):
            x, y = pair(i)
            if u == x:
                return (slots[i], 0, 2)
            if u == y:
                return (slots[i], 0, 3)
    for i in range(3):
        x, y = pair(i)
        if {oi, oj} == {x, y}:
            return (slots[i], 2, 3)
    raise AssertionError("unmapped site edge")


def positive_move(spine, face_class, variant=0):
    """The ``variant``-th branched 2-to-3 move at a face class.

    MoveError when the face class has no branched move or the variant is
    out of range, instead of an empty list or a bare index error.
    """
    options = apply_positive(spine, face_class)
    if not options:
        raise MoveError("no branched positive move at face %d" % face_class)
    if not 0 <= variant < len(options):
        raise MoveError("variant %d out of range (%d available)"
                        % (variant, len(options)))
    return options[variant]


# -- negative move ---------------------------------------------------------------


def apply_negative(spine, edge_class):
    """The branched 3-to-2 move at a valence-three edge class."""
    trg = spine.triangulation
    _check_site(edge_class, len(trg.edge_classes), "edge")
    cls = trg.edge_classes[edge_class]
    if cls.size != 3:
        raise NotApplicable(
            "edge class %d has valence %d, need 3" % (edge_class, cls.size))
    fan = list(cls.fan)
    tets = [f[0] for f in fan]
    if len(set(tets)) != 3:
        raise NotApplicable(
            "edge class %d does not meet three distinct tetrahedra" % edge_class)
    if spine.branching[edge_class] == -1:
        # Work with the branching direction: swap the ends of each member.
        fan = [(t, j, i, enter, exit_) for (t, i, j, enter, exit_) in fan]
    # fan[p] = (T_p, a_end, c_end, enter, exit)

    T = trg.tet_count
    survivors = sorted(t for t in range(T) if t not in tets)
    remap = {t: i for i, t in enumerate(survivors)}
    t_top = len(survivors)
    t_bot = len(survivors) + 1
    new_count = T - 1

    pos_bot = {0: 1, 1: 3, 2: 2}   # equator index -> corner of the bottom tet

    # Corner relocations: old (T_p, corner) into top/bottom tetrahedra.
    lam_top, lam_bot = {}, {}
    for pidx, (tp, ia, jc, enter, exit_) in enumerate(fan):
        lam_top[(tp, ia)] = 0
        lam_top[(tp, enter)] = 1 + pidx
        lam_top[(tp, exit_)] = 1 + (pidx - 1) % 3
        lam_bot[(tp, jc)] = 0
        lam_bot[(tp, enter)] = pos_bot[pidx]
        lam_bot[(tp, exit_)] = pos_bot[(pidx - 1) % 3]

    reloc = {}
    for pidx, (tp, ia, jc, enter, exit_) in enumerate(fan):
        qidx = (pidx + 1) % 3
        lam = {c: lam_top[(tp, c)] for c in (ia, enter, exit_)}
        lam[jc] = 1 + qidx
        reloc[(tp, jc)] = (t_top, 1 + qidx, lam)
        lamb = {c: lam_bot[(tp, c)] for c in (jc, enter, exit_)}
        lamb[ia] = pos_bot[qidx]
        reloc[(tp, ia)] = (t_bot, pos_bot[qidx], lamb)

    gluings = {}
    done = set()
    internal_faces = {(tp, enter) for (tp, _ia, _jc, enter, _x) in fan} | \
                     {(tp, exit_) for (tp, _ia, _jc, _e, exit_) in fan}
    for (t, f), (t2, f2, g) in trg.gluings.items():
        if (t, f) in done or (t2, f2) in done:
            continue
        if (t, f) in internal_faces:
            continue
        done.add((t, f))
        done.add((t2, f2))
        if (t, f) in reloc:
            nt, nf, lam = reloc[(t, f)]
        else:
            nt, nf, lam = remap[t], f, {i: i for i in range(4)}
        if (t2, f2) in reloc:
            nt2, nf2, lam2 = reloc[(t2, f2)]
        else:
            nt2, nf2, lam2 = remap[t2], f2, {i: i for i in range(4)}
        lam_inv = {v: k for k, v in lam.items()}
        newg = tuple(lam2[g[lam_inv[i]]] for i in range(4))
        if (nt, nf) == (nt2, nf2):
            raise NotApplicable("degenerate identification at the site")
        gluings[(nt, nf)] = (nt2, nf2, newg)
        gluings[(nt2, nf2)] = (nt, nf, inverse(newg))
    g = (0, 1, 3, 2)
    gluings[(t_top, 0)] = (t_bot, 0, g)
    gluings[(t_bot, 0)] = (t_top, 0, inverse(g))

    try:
        after_trg = Triangulation(new_count, gluings)
    except (NonStandardDual, NonOrientable, Disconnected) as exc:
        raise ResultNonStandard(str(exc))

    # Ambient orientation of the two new tetrahedra, from the first fan tet.
    tp0, ia0, jc0, enter0, exit0 = fan[0]
    s0 = spine.orientations[tp0] * sign((ia0, enter0, exit0, jc0))
    orientations = [0] * new_count
    for t in survivors:
        orientations[remap[t]] = spine.orientations[t]
    orientations[t_top] = -s0
    orientations[t_bot] = -s0

    def new_edge_dir(nt, ni, nj):
        if nt < t_top:
            t = survivors[nt]
            return spine.edge_direction(t, ni, nj)
        i_, j_ = sorted((ni, nj))
        if nt == t_top and i_ == 0:
            pidx = j_ - 1
            tp, ia, jc, enter, exit_ = fan[pidx]
            d = spine.edge_direction(tp, ia, enter)
        elif nt == t_top:
            pa, qa = i_ - 1, j_ - 1
            pidx = qa if (qa - pa) % 3 == 1 else pa
            tp, ia, jc, enter, exit_ = fan[pidx]
            if pa == pidx:  # edge (u_pidx, u_{pidx-1}) read enter -> exit
                d = spine.edge_direction(tp, enter, exit_)
            else:
                d = spine.edge_direction(tp, exit_, enter)
        else:
            inv_bot = {v: k for k, v in pos_bot.items()}
            if i_ == 0:
                pidx = inv_bot[j_]
                tp, ia, jc, enter, exit_ = fan[pidx]
                d = spine.edge_direction(tp, jc, enter)
            else:
                pa, qa = inv_bot[i_], inv_bot[j_]
                pidx = qa if (qa - pa) % 3 == 1 else pa
                tp, ia, jc, enter, exit_ = fan[pidx]
                if pa == pidx:
                    d = spine.edge_direction(tp, enter, exit_)
                else:
                    d = spine.edge_direction(tp, exit_, enter)
        return d if (i_, j_) == (ni, nj) else not d

    branching = []
    for cls2 in after_trg.edge_classes:
        nt, ni, nj = cls2.members[0]
        branching.append(1 if new_edge_dir(nt, ni, nj) else -1)
    try:
        after = BranchedSpine(after_trg, branching, orientations)
    except CyclicTriangle:
        raise NotApplicable("restricted branching is not a branching "
                            "(the new face is cyclic)")
    except NonStandardDual as exc:
        raise ResultNonStandard(str(exc))

    tet_map = {t: remap[t] for t in survivors}
    edge_map = {}
    for k, old_cls in enumerate(trg.edge_classes):
        if k == edge_class:
            continue
        image = None
        for (ot, oi, oj) in old_cls.members:
            if ot not in tets:
                image = after_trg.edge_class_of[(remap[ot], oi, oj)][0]
                break
        if image is None:
            ot, oi, oj = old_cls.members[0]
            pidx = tets.index(ot)
            tp, ia, jc, enter, exit_ = fan[pidx]
            pairs = {ia, jc}
            if jc not in (oi, oj):
                nt = t_top
                lam = {ia: 0, enter: 1 + pidx, exit_: 1 + (pidx - 1) % 3}
            else:
                nt = t_bot
                lam = {jc: 0, enter: pos_bot[pidx], exit_: pos_bot[(pidx - 1) % 3]}
            image = after_trg.edge_class_of[(nt, lam[oi], lam[oj])][0]
        edge_map[k] = image
    vanished = []
    face_map = {}
    for k, ((ft, ff), (ft2, ff2)) in enumerate(trg.face_classes):
        if (ft, ff) in internal_faces:
            vanished.append(k)
            continue
        if (ft, ff) in reloc:
            nt, nf, _ = reloc[(ft, ff)]
            face_map[k] = after_trg.face_class_of[(nt, nf)]
        else:
            face_map[k] = after_trg.face_class_of[(remap[ft], ff)]
    created = (after_trg.face_class_of[(t_top, 0)],)

    bdirs = {}
    bec = {}
    for pidx, (tp, ia, jc, enter, exit_) in enumerate(fan):
        li = _EQ_LABELS[pidx]
        bdirs[("a", li)] = spine.edge_direction(tp, ia, enter)
        bec[frozenset(("a", li))] = spine.oriented_class(tp, ia, enter)
        bdirs[("c", li)] = spine.edge_direction(tp, jc, enter)
        bec[frozenset(("c", li))] = spine.oriented_class(tp, jc, enter)
        u, v = _EQ_LABELS[(pidx - 1) % 3], li
        bdirs[(u, v)] = spine.edge_direction(tp, exit_, enter)
        bec[frozenset((u, v))] = spine.oriented_class(tp, exit_, enter)
    bdirs[("a", "c")] = True
    bip = Bipyramid(bdirs, bec)

    return MoveInstance(
        "negative", edge_class, 0, None, spine, after,
        tet_map, edge_map, face_map, bip,
        tuple(tets), (t_top, t_bot), tuple(sorted(vanished)), created,
        central_class_before=edge_class, central_class_after=None)


# -- invariance certificate -------------------------------------------------------


class HCycleReport:
    """The 21-row certificate table of a move.

    ``rows``: list of (simplex label, epsilon, end0, end1); the boundary
    of a row is epsilon * (end0 - end1) as a formal sum of the external
    vertex labels, ``total`` collects all rows, and ``is_null`` certifies
    the move torsion-safe.  ``h_class`` is the class of the certificate
    cycle in the first homology of the quotient complex, in Smith
    coordinates of the before spine (always defined; zero when is_null).
    """

    def __init__(self, rows, total, is_null, h_class):
        self.rows = rows
        self.total = total
        self.is_null = is_null
        self.h_class = h_class

    def row_boundary(self, row):
        _label, eps, e0, e1 = row
        out = {}
        if e0 != e1:
            out[e0] = eps
            out[e1] = -eps
        return out


def _simplex_cells(label):
    """(cell of the 2-tet triangulation, cell of the 3-tet one) containing
    the interior of an internal simplex of the common subdivision."""
    verts = tuple(label[1:])
    eq = set(_EQ_LABELS)
    apexes = {ch for ch in verts if ch in "ac"}
    equator = [ch for ch in verts if ch in eq]
    # Before: the two tetrahedra are {a}+equator and {c}+equator, sharing
    # the equator face.  After: central edge ac, faces {a,c,x}, tets
    # {a,c,x,y}.
    if "a" in apexes:
        cell0 = ("tet", frozenset("a" + "".join(_EQ_LABELS)))
    elif "c" in apexes:
        cell0 = ("tet", frozenset("c" + "".join(_EQ_LABELS)))
    else:
        cell0 = ("face", frozenset(_EQ_LABELS))
    if not equator:
        cell1 = ("edge", frozenset("ac"))
    elif len(equator) == 1:
        cell1 = ("face", frozenset("ac" + equator[0]))
    else:
        cell1 = ("tet", frozenset("ac" + "".join(equator)))
    return cell0, cell1


def _sink(bip, verts):
    """The vertex of a bipyramid simplex that its other vertices point to."""
    best = None
    for w in verts:
        if all(bip.directed(u, w) for u in verts if u != w):
            best = w
    assert best is not None, "simplex %s has no sink" % (verts,)
    return best


def _tree_chains(bip, n):
    """Edge chains of the fixed tree paths from each bipyramid vertex to
    the root apex a, through external edges: b, d and e straight to a,
    c through b.  Edge cells of X are oriented by the branching, so a
    traversal contributes +1 along the branching direction and -1
    against it."""
    chains = {"a": [0] * n}
    for label in _EQ_LABELS:
        vec = [0] * n
        cls, _ = bip.edge_class[frozenset(("a", label))]
        vec[cls] += -1 if bip.directed("a", label) else 1
        chains[label] = vec
    vec = list(chains["b"])
    cls, _ = bip.edge_class[frozenset(("c", "b"))]
    vec[cls] += 1 if bip.directed("c", "b") else -1
    chains["c"] = vec
    return chains


def h_cycle_check(move):
    """Certificate table of a move instance; see HCycleReport."""
    bip = move.bipyramid
    rows = []
    total = {}
    for label in _ROW_ORDER:
        dim = len(label) - 1
        eps = (-1) ** dim
        c0, c1 = _simplex_cells(label)
        e0 = _sink(bip, c0[1])
        e1 = _sink(bip, c1[1])
        rows.append((label, eps, e0, e1))
        if e0 != e1:
            total[e0] = total.get(e0, 0) + eps
            total[e1] = total.get(e1, 0) - eps
    total = {k: v for k, v in total.items() if v}
    is_null = not total

    # Homology class of the certificate cycle: fixed tree paths to the
    # root apex, so a null total lifts to zero.
    before = move.before
    n = len(before.triangulation.edge_classes)
    chains = _tree_chains(bip, n)
    h_chain = [0] * n
    for (label, eps, e0, e1) in rows:
        if e0 == e1:
            continue
        c1v = chains[e1]
        c0v = chains[e0]
        h_chain = [h + eps * (x - y) for h, x, y in zip(h_chain, c1v, c0v)]
    from .complexes import CellComplexX, GroupData
    G = GroupData(CellComplexX(before))
    h_class = G.class_of_vector(h_chain)
    return HCycleReport(rows, total, is_null, h_class)


# -- rigidity and walks -----------------------------------------------------------


def is_rigid(spine):
    """True when no branched positive move applies at any face class."""
    for fc in range(len(spine.triangulation.face_classes)):
        try:
            if apply_positive(spine, fc):
                return False
        except (SelfAdjacentFace, ResultNonStandard):
            continue
    return True


def available_moves(spine, h_null_only=False):
    """All applicable moves in canonical order (positive by face class and
    variant, then negative by edge class)."""
    out = []
    for fc in range(len(spine.triangulation.face_classes)):
        try:
            out.extend(apply_positive(spine, fc))
        except (SelfAdjacentFace, ResultNonStandard):
            continue
    for ec in range(len(spine.triangulation.edge_classes)):
        try:
            out.append(apply_negative(spine, ec))
        except (NotApplicable, ResultNonStandard):
            continue
    if h_null_only:
        out = [m for m in out if h_cycle_check(m).is_null]
    return out


def random_walk(spine, steps, seed, h_null_only=False, max_tets=None):
    """A reproducible walk of applicable moves.

    The candidate list at each step is deterministic and the choice is
    driven by SplitMix64(seed), so identical inputs replay identical
    walks.  ``max_tets`` optionally drops positive moves that would grow
    the spine past the bound.  Raises Stuck when no move applies.
    """
    rng = SplitMix64(seed)
    walk = []
    cur = spine
    for _ in range(steps):
        moves = available_moves(cur, h_null_only=h_null_only)
        if max_tets is not None:
            moves = [m for m in moves
                     if m.after.tet_count <= max_tets]
        if not moves:
            raise Stuck("no applicable move after %d steps" % len(walk))
        move = moves[rng.below(len(moves))]
        walk.append(move)
        cur = move.after
    return walk


# -- transports across a move -----------------------------------------------------


def _twisted(spine, rep):
    from .complexes import CellComplexX, SpiderAnchors, TwistedComplex
    X = CellComplexX(spine)
    return TwistedComplex(spine, X, SpiderAnchors(spine, X), rep)


def transport_representation(move, rep):
    """The representation on the after spine induced by the correspondence.

    Surviving edge classes keep their images; the central edge of a
    positive move maps to the product along an external two-edge path
    from apex to apex, which is its class in the common model.
    """
    from .complexes import CellComplexX, GroupData, Representation
    after = move.after
    G2 = GroupData(CellComplexX(after))
    field = rep.field
    images = [None] * G2.n_generators
    for old, new in move.edge_map.items():
        images[new] = rep.images[old]
    if move.direction == "positive":
        # The central generator is the class of the new edge as oriented
        # by the branching; its image is the product along an external
        # two-edge path between the apexes, inverted when the chosen
        # orientation runs from the second apex to the first.
        bip = move.bipyramid

        def leg(u, v):
            cls, _ = bip.edge_class[frozenset((u, v))]
            return rep.images[cls] if bip.directed(u, v) else rep.inverses[cls]

        path = leg("a", "b") * leg("b", "c")
        images[move.central_class_after] = path if bip.directed("a", "c") \
            else path.inv()
    assert all(v is not None for v in images)
    return Representation(G2, field, images, rep.kind, rep.character)


def _zero_out(field, vec, coords, columns):
    """Subtract a combination of ``columns`` from ``vec`` so that the
    listed coordinates vanish; returns the new vector or None."""
    if not coords:
        return list(vec)
    rhs = [vec[c] for c in coords]
    if all(x.is_zero() for x in rhs):
        return list(vec)
    sub = [[col[c] for col in columns] for c in coords]
    sol = field.solve(sub, rhs)
    if sol is None:
        return None
    out = list(vec)
    for col, coeff in zip(columns, sol):
        if coeff.is_zero():
            continue
        for i in range(len(out)):
            out[i] = out[i] - coeff * col[i]
    return out


def transport_homology(move, rep_before, rep_after, lifts):
    """Carry homology lifts across a move correspondence.

    Degree 0 is the base point; degree-1 cycles inject after the central
    coordinate (if any) is removed with face boundaries; degree-2 cycles
    inject after their coordinates on vanishing faces are removed with
    tetrahedron boundaries; degree-3 cycles keep their outside
    coefficients and the site coefficients are re-solved in the after
    complex.  Raises TransportFailure when a class cannot be resolved.
    """
    tc_before = _twisted(move.before, rep_before)
    tc_after = _twisted(move.after, rep_after)
    field = rep_before.field
    out = {}
    dims_after = tc_after.dims
    for deg, vecs in lifts.items():
        if not vecs:
            continue
        new_vecs = []
        for vec in vecs:
            if deg == 0:
                new_vecs.append([rep_after.field.one])
                continue
            if deg == 1:
                v = list(vec)
                if move.direction == "negative":
                    central = move.central_class_before
                    cols = [[tc_before.d2[r][j] for r in range(len(tc_before.d2))]
                            for j in move.vanished_faces]
                    v = _zero_out(field, v, [central], cols)
                    if v is None:
                        raise TransportFailure("degree-1 class stuck on the "
                                               "central edge")
                w = [rep_after.field.zero] * dims_after[1]
                for old, new in move.edge_map.items():
                    w[new] = v[old]
                new_vecs.append(w)
                continue
            if deg == 2:
                cols = [[tc_before.d3[r][j] for r in range(len(tc_before.d3))]
                        for j in move.site_tets_before]
                v = _zero_out(field, list(vec), list(move.vanished_faces), cols)
                if v is None:
                    raise TransportFailure("degree-2 class stuck on the site")
                w = [rep_after.field.zero] * dims_after[2]
                for old, new in move.face_map.items():
                    w[new] = v[old]
                new_vecs.append(w)
                continue
            # Degree 3: outside coefficients carry over; site coefficients
            # come from the common-subdivision weights.
            w_out = [rep_after.field.zero] * dims_after[3]
            for old, new in move.tet_map.items():
                w_out[new] = vec[old]
            site_coeffs = _site_tet_weights(move, rep_before, vec)
            for j, c in site_coeffs.items():
                w_out[j] = c
            for r in range(dims_after[2]):
                acc = rep_after.field.zero
                for j in range(dims_after[3]):
                    if not (tc_after.d3[r][j].is_zero() or w_out[j].is_zero()):
                        acc = acc + tc_after.d3[r][j] * w_out[j]
                if not acc.is_zero():
                    raise TransportFailure(
                        "transported degree-3 chain is not a cycle")
            new_vecs.append(w_out)
        out[deg] = new_vecs
    return out


_PAIRS = (("b", "d"), ("d", "e"), ("e", "b"))


def _site_tet_weights(move, rep_before, vec):
    """After-side site coefficients of a degree-3 cycle, via the bipyramid.

    Every sub-tetrahedron of the common subdivision lies in one cell of
    each triangulation of the bipyramid; its two preferred lifts differ
    by the class of a path between the two flow targets.  The after
    coefficient on a cell is the before coefficient of the other
    container times the image of that path, and must agree across the
    sub-tetrahedra of the cell.
    """
    bip = move.bipyramid
    field = rep_before.field
    chains = _tree_chains(bip, len(move.before.triangulation.edge_classes))
    if move.direction == "positive":
        before_of_apex = {"a": move.site_tets_before[0],
                          "c": move.site_tets_before[1]}
        after_of_pair = {p: move.site_tets_after[i]
                         for i, p in enumerate(_PAIRS)}
    else:
        fan_pairs = {(_EQ_LABELS[(p - 1) % 3], _EQ_LABELS[p]):
                     move.site_tets_before[p] for p in range(3)}
        before_of_pair = {}
        for pr in _PAIRS:
            match = next(k for k in fan_pairs if set(k) == set(pr))
            before_of_pair[pr] = fan_pairs[match]
        after_of_apex = {"a": move.site_tets_after[0],
                         "c": move.site_tets_after[1]}

    weights = {}
    for apex in ("a", "c"):
        for pr in _PAIRS:
            end2 = _sink(bip, (apex, "b", "d", "e"))  # two-tet side container
            end3 = _sink(bip, ("a", "c") + pr)        # three-tet side container
            if move.direction == "positive":
                lam = vec[before_of_apex[apex]]
                end_bef, end_aft = end2, end3
                target = after_of_pair[pr]
            else:
                lam = vec[before_of_pair[pr]]
                end_bef, end_aft = end3, end2
                target = after_of_apex[apex]
            path = [x - y for x, y in zip(chains[end_bef], chains[end_aft])]
            coeff = lam * rep_before.image_of_vector(path)
            if target in weights:
                if not weights[target] == coeff:
                    raise TransportFailure(
                        "inconsistent subdivision weights on the site")
            else:
                weights[target] = coeff
    return weights


def transport_rational_homology(move, olifts):
    """Transport rational homology lifts (for the sign refinement)."""
    from .complexes import CellComplexX, GroupData, Representation
    G1 = GroupData(CellComplexX(move.before))
    G2 = GroupData(CellComplexX(move.after))
    r1 = Representation.trivial(G1)
    r2 = Representation.trivial(G2)
    return transport_homology(move, r1, r2, olifts)
