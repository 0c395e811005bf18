"""Plain-text spine files and move logs.

Grammar (one declaration per line; ``#`` starts a comment; blank lines
are skipped)::

    spine 1
    tets <N>
    glue <t>.<f> -> <t'>.<f'> : <xyz>
    edge <k> : <t>.<ij>
    orient <t> <+|->

A ``glue`` line identifies face f of tetrahedron t with face f' of t';
the three digits ``xyz`` are the images of the corners of face f listed
in increasing order (face f has corners {0..3} minus f).  Each face pair
appears once, keyed by its lexicographically smaller side.  An ``edge``
line orients edge class k (classes are numbered by their smallest
tetrahedron edge) by giving its smallest member as an ordered corner
pair.  ``orient`` lines fix the ambient orientation bit of every
tetrahedron; they may be omitted on input, in which case tetrahedron 0
is oriented positively.

Serialisation is canonical, so parse(serialize(s)) == s and
serialize(parse(text)) == text byte-for-byte for serialiser output.
"""

from .errors import SpineSyntaxError
from .spine import BranchedSpine
from .triangulation import Triangulation, _face_corners

FORMAT_VERSION = 1


def serialize(spine):
    trg = spine.triangulation
    lines = ["spine %d" % FORMAT_VERSION, "tets %d" % trg.tet_count]
    seen = set()
    for t in range(trg.tet_count):
        for f in range(4):
            if (t, f) in seen:
                continue
            t2, f2, perm = trg.gluings[(t, f)]
            seen.add((t, f))
            seen.add((t2, f2))
            word = "".join(str(perm[c]) for c in _face_corners(f))
            lines.append("glue %d.%d -> %d.%d : %s" % (t, f, t2, f2, word))
    for k, cls in enumerate(trg.edge_classes):
        t, i, j = min(cls.members, key=lambda m: (m[0], min(m[1:]), max(m[1:])))
        if not spine.edge_direction(t, i, j):
            i, j = j, i
        lines.append("edge %d : %d.%d%d" % (k, t, i, j))
    for t in range(trg.tet_count):
        lines.append("orient %d %s" % (t, "+" if spine.orientations[t] == 1 else "-"))
    return "\n".join(lines) + "\n"


def _syntax(lineno, msg):
    raise SpineSyntaxError(msg, line=lineno)


def parse(text):
    """Parse a spine file into a validated BranchedSpine."""
    tet_count = None
    gluings = {}
    edge_lines = []
    orient_lines = {}
    version_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "spine":
            if len(parts) != 2 or not parts[1].isdecimal():
                _syntax(lineno, "expected 'spine <version>'")
            if int(parts[1]) != FORMAT_VERSION:
                _syntax(lineno, "unsupported format version %s" % parts[1])
            version_seen = True
        elif parts[0] == "tets":
            if len(parts) != 2 or not parts[1].isdecimal():
                _syntax(lineno, "expected 'tets <count>'")
            tet_count = int(parts[1])
        elif parts[0] == "glue":
            if len(parts) != 6 or parts[2] != "->" or parts[4] != ":":
                _syntax(lineno, "expected 'glue t.f -> t.f : xyz'")
            try:
                t, f = parts[1].split(".")
                t2, f2 = parts[3].split(".")
                t, f, t2, f2 = int(t), int(f), int(t2), int(f2)
            except ValueError:
                _syntax(lineno, "bad face reference in glue line")
            word = parts[5]
            if len(word) != 3 or not word.isdecimal():
                _syntax(lineno, "bad permutation token %r" % word)
            images = [int(ch) for ch in word]
            if f2 in images or len(set(images)) != 3 or any(x > 3 for x in images):
                _syntax(lineno, "bad permutation token %r" % word)
            perm = [None] * 4
            perm[f] = f2
            for corner, image in zip(_face_corners(f), images):
                perm[corner] = image
            gluings[(t, f)] = (t2, f2, tuple(perm))
        elif parts[0] == "edge":
            if len(parts) != 4 or parts[2] != ":":
                _syntax(lineno, "expected 'edge k : t.ij'")
            try:
                k = int(parts[1])
                t, ij = parts[3].split(".")
                t = int(t)
            except ValueError:
                _syntax(lineno, "bad edge reference")
            if len(ij) != 2 or not ij.isdecimal():
                _syntax(lineno, "bad edge corners %r" % parts[3])
            i, j = int(ij[0]), int(ij[1])
            if i == j or i > 3 or j > 3:
                _syntax(lineno, "bad edge corners %r" % parts[3])
            edge_lines.append((lineno, k, t, i, j))
        elif parts[0] == "orient":
            if len(parts) != 3 or not parts[1].isdecimal() or parts[2] not in ("+", "-"):
                _syntax(lineno, "expected 'orient t +|-'")
            t = int(parts[1])
            if t in orient_lines:
                _syntax(lineno, "repeated orient line for tetrahedron %d" % t)
            orient_lines[t] = (lineno, 1 if parts[2] == "+" else -1)
        else:
            _syntax(lineno, "unknown declaration %r" % parts[0])
    if not version_seen:
        raise SpineSyntaxError("missing 'spine <version>' header", line=1)
    if tet_count is None:
        raise SpineSyntaxError("missing 'tets <count>' line", line=1)
    for t, (lineno, _sign) in orient_lines.items():
        if t >= tet_count:
            _syntax(lineno, "orient line for tetrahedron %d, but there are %d"
                    % (t, tet_count))
    trg = Triangulation(tet_count, gluings)
    branching = [None] * len(trg.edge_classes)
    for (lineno, k, t, i, j) in edge_lines:
        if not (0 <= k < len(branching)):
            _syntax(lineno, "edge class %d out of range" % k)
        cls_sign = trg.edge_class_of.get((t, i, j))
        if cls_sign is None or cls_sign[0] != k:
            _syntax(lineno, "edge %d.%d%d is not in class %d" % (t, i, j, k))
        branching[k] = cls_sign[1]
    missing = [k for k, b in enumerate(branching) if b is None]
    if missing:
        raise SpineSyntaxError(
            "no direction given for edge class %d" % missing[0], line=1)
    orientations = None
    if orient_lines:
        orientations = [orient_lines.get(t, (0, 0))[1] for t in range(tet_count)]
        if 0 in orientations:
            raise SpineSyntaxError(
                "orient lines must cover all tetrahedra or none", line=1)
    return BranchedSpine(trg, branching, orientations)


def validate(text):
    """Parse-and-validate entry point; alias of :func:`parse`."""
    return parse(text)


# -- move logs --------------------------------------------------------------------


def serialize_move_log(walk):
    """Move log: one line per move, enough to replay a walk bit-exactly."""
    lines = ["movelog %d" % FORMAT_VERSION]
    for m in walk:
        if m.direction == "positive":
            lines.append("+ face %d variant %d" % (m.site, m.variant))
        else:
            lines.append("- edge %d" % m.site)
    return "\n".join(lines) + "\n"


def parse_move_log(text):
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "movelog":
            continue
        if parts[0] == "+" and len(parts) == 5 and parts[1] == "face" \
                and parts[3] == "variant" and parts[2].isdecimal() and parts[4].isdecimal():
            steps.append(("positive", int(parts[2]), int(parts[4])))
        elif parts[0] == "-" and len(parts) == 3 and parts[1] == "edge" \
                and parts[2].isdecimal():
            steps.append(("negative", int(parts[2]), 0))
        else:
            raise SpineSyntaxError("bad move line", line=lineno)
    return steps


def replay_move_log(spine, steps):
    """Apply a parsed move log; returns the list of MoveInstance."""
    from .moves import apply_negative, positive_move
    walk = []
    cur = spine
    for kind, site, variant in steps:
        if kind == "positive":
            move = positive_move(cur, site, variant)
        else:
            move = apply_negative(cur, site)
        walk.append(move)
        cur = move.after
    return walk
