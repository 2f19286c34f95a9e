"""Domains of prescribed volume, the centering translation for the trial
function, and quadrature driving the quotient bound: normalize a domain to
unit-ball volume, locate the vanishing point of the centering field X(v),
integrate the numerator and denominator with the radial reduction (or the
tensor-grid and Monte Carlo fallbacks).

The radial reduction: every integrand is a function of |x - c|, so
int_Omega f(|x - c|) dx = int_{S^{d-1}} sum_j sign_j G(t_j) dtheta, where
G(R) = int_0^R f(r) r^(d-1) dr and t_j are the signed distances at which
the ray from c in the direction theta crosses the boundary.
"""

import ast
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from . import trial
from .ball import fundamental_tone
from .specfun import _gauss_gegenbauer

# the config keys each shape requires; the symmetric shapes are centered at
# their offset by construction and alone take the optional center key
_SHAPES = {"ball": ("radius",), "ellipsoid": ("semiaxes",), "box": ("sides",),
           "annulus": ("inner", "outer"), "two-balls": ("radii", "centers"),
           "implicit": ("expr", "bounds")}
_SYMMETRIC = frozenset(("ball", "ellipsoid", "box", "annulus"))
_MC_CHUNK = 2**20
# each rule's count unless one is given (--samples): the radial rule's
# directions, spread over the d - 1 angles, the grid's cells per axis and
# mc's draws
_SAMPLES = {"radial": 8192, "grid": 1024, "mc": 10**7}
_KIND_DEFAULT = object()
# implicit domains whose comparisons are polynomials of degree <= 2 (_checked)
# are cast exactly, from their roots along each ray; roots this many ulps
# of the farthest bbox corner's distance apart, or from a bbox end, are one
_MERGE_ULPS = 8
_BRANCHES = 64          # most polynomials one side of a comparison expands to
# every other implicit domain is sampled: each ray at steps of at most
# 1/_RAY_STEPS of the bbox diagonal, so this is the thinnest feature the
# sampled cast resolves (as the cell is for the grid); changes are bisected
_RAY_STEPS = 256
# ray samples per expression call (a block of steps of every ray, or of
# rays past _RAY_CHUNK of them): at 2**15 (256 KiB an array of doubles) a
# block's coordinates and the expression's temporaries stay within a
# core's 2 MiB L2 cache; at 2**18 they spill it and the cast runs slower
_RAY_CHUNK = 2**15
_BISECTIONS = 45        # a step halved 45 times is below eps * diameter
# a ray's end samples lie on bbox faces, which a domain touching its bbox
# shares: there rounding alone would decide membership, and with it whether
# a chord shorter than a step that ends on the face is found (mirrored rays
# then disagree). They are taken this fraction of the span inside instead
_RAY_EDGE = 2.0**-30
_GAUSS_NODES = 10       # Gauss-Legendre nodes per radial panel
# radii per chunk of a radial table's Horner pass: its gathers, x and sum
# are tables x chunk arrays (96 KiB each at the centering's three tables),
# where one pass over a whole cast would hold them at the cast's length
# and raise the peak memory
_SERIES_CHUNK = 2**12
_PANELS = 64            # radial panels per unit of the table's variable
_CENTER_CASTS = 64      # centering casts before giving up (Newton takes ~3)
_NO_CROSSING = "domain appears empty: no ray of the radial rule crosses it"
# the rules' sums carry rounding, so no error bar is smaller than this
_ROUNDING = 64 * np.finfo(float).eps


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class Domain:
    """Implicit domain with membership test, bounding box, and volume.

    Fields
    ------
    d : int
        Ambient dimension.
    shape : str
        One of ball, ellipsoid, box, annulus, two-balls, implicit.
    params : dict
        Shape parameters in base (unscaled, untranslated) coordinates.
    offset : tuple
        Translation applied to the base shape.
    scale : float
        Cumulative dilation applied to the base shape; normalize_volume
        records its factor here.
    volume : float
        Exact for the library shapes; the radial reduction of f = 1 for
        implicit domains given without their volume.
    volume_error : float
        Error estimate of the volume (from the radial rule's companion
        rules); 0 when exact.
    bbox : tuple
        (lower corner, upper corner), both tuples of floats.
    """

    d: int
    shape: str
    params: dict
    offset: tuple
    scale: float
    volume: float
    volume_error: float
    bbox: tuple

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.d < 1 or not (0.0 < self.scale < math.inf
                              and 0.0 < self.volume < math.inf):
            raise ValueError("domain requires d >= 1 and a finite scale "
                             "> 0 and volume > 0")
        if self.shape == "implicit":
            _checked(self.params["expr"], self.d)

    def contains(self, points):
        """Vectorized membership: points (n, d) or (d,) -> bool mask."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.d:
            raise ValueError("points must have d columns")
        p = self.params
        if self.shape == "implicit":
            # column by column: each coordinate the expression reads is one
            # contiguous array, whatever the layout of points
            mask = _eval_implicit(p["expr"], [
                (pts[:, k] - self.offset[k]) / self.scale
                for k in range(self.d)])
            return bool(mask[0]) if single else mask
        y = (pts - np.asarray(self.offset)) / self.scale
        if self.shape == "ball":
            mask = np.einsum("ij,ij->i", y, y) <= p["radius"] ** 2
        elif self.shape == "ellipsoid":
            z = y / np.asarray(p["semiaxes"])
            mask = np.einsum("ij,ij->i", z, z) <= 1.0
        elif self.shape == "box":
            half = 0.5 * np.asarray(p["sides"])
            mask = np.all(np.abs(y) <= half, axis=1)
        elif self.shape == "annulus":
            r2 = np.einsum("ij,ij->i", y, y)
            mask = (p["inner"] ** 2 <= r2) & (r2 <= p["outer"] ** 2)
        else:
            (c1, c2), (r1, r2) = p["centers"], p["radii"]
            d1 = y - np.asarray(c1)
            d2 = y - np.asarray(c2)
            mask = ((np.einsum("ij,ij->i", d1, d1) <= r1**2)
                    | (np.einsum("ij,ij->i", d2, d2) <= r2**2))
        return bool(mask[0]) if single else mask

    def crossings(self, origin, dirs):
        """Signed distances at which rays from origin cross the boundary.

        dirs holds unit directions u as rows; ray i is origin + t u_i,
        t >= 0. Returns (t, sign), two (len(dirs), k) arrays such that for
        any F with F(0) = 0 the integral of F'(t) over the part of ray i
        inside the domain is sum_j sign[i, j] F(t[i, j]). sign is +1 where
        a segment ends and -1 where it starts. The annulus subtracts its
        hole's chord (its -1 at the hole's far end); two balls give the
        union of their chords as at most two ordered, disjoint segments,
        (0, 0) where there are fewer; an implicit cast gives each ray's
        crossings in t order, sign 0 on padding. The origin need not be
        inside and the domain need not be star-shaped.
        """
        o = np.asarray(origin, dtype=float)
        u = np.atleast_2d(np.asarray(dirs, dtype=float))
        if o.shape != (self.d,) or u.shape[1] != self.d:
            raise ValueError("origin and directions must have d entries")
        if self.shape == "implicit":
            return self._ray_cast(o, u)
        y0 = (o - np.asarray(self.offset)) / self.scale
        p = self.params
        if self.shape == "ball":
            segs = [(_chord(y0, u, p["radius"]), 1.0)]
        elif self.shape == "ellipsoid":
            ax = np.asarray(p["semiaxes"])
            segs = [(_chord(y0 / ax, u / ax, 1.0), 1.0)]
        elif self.shape == "box":
            segs = [(_slab(y0, u, 0.5 * np.asarray(p["sides"])), 1.0)]
        elif self.shape == "annulus":
            segs = [(_chord(y0, u, p["outer"]), 1.0),
                    (_chord(y0, u, p["inner"]), -1.0)]
        else:
            (c1, c2), (r1, r2) = p["centers"], p["radii"]
            segs = [(seg, 1.0) for seg in _union(
                _chord(y0 - np.asarray(c1), u, r1),
                _chord(y0 - np.asarray(c2), u, r2))]
        t = np.stack([x for (a, b), _ in segs for x in (b, a)], axis=1)
        sign = np.array([x for _, w in segs for x in (w, -w)])
        return t * self.scale, np.broadcast_to(sign, t.shape)

    def _ray_cast(self, o, u):
        # CSG ray casting (Roth 1982) with the set operations left to the
        # expression: membership changes only at a root of an atom of
        # _checked, so between the sorted roots inside the bbox it is
        # constant, and the expression's value at each piece's midpoint
        # (contains' arithmetic, (o + t u - offset) / scale) gives it. One
        # expression call per piece column over all rays; beyond the bbox
        # counts as outside. Rows of candidates, pieces and inside run
        # along the rays
        atoms = _checked(self.params["expr"], self.d)[1]
        if atoms is None:
            return self._sampled_cast(o, u)
        lo, hi = np.asarray(self.bbox[0]), np.asarray(self.bbox[1])
        t_in, t_out = _slab(o - 0.5 * (lo + hi), u, 0.5 * (hi - lo))
        m, scale = u.shape[0], self.scale
        off = np.asarray(self.offset)
        tol = _MERGE_ULPS * np.finfo(float).eps * self._far(o)
        # along the ray y = y0 + t w in the base frame an atom c + b.y +
        # y.A.y is q0 + 2 h t + a t^2: q0 = p(y0), h = (b / 2 + A y0).w,
        # a = w.A.w, with the roots of the stable quadratic formula
        (c1, b1), (c2, b2, A2) = atoms
        uT = np.ascontiguousarray(u.T)
        y0, w = (o - off) / scale, uT / scale
        with np.errstate(divide="ignore", invalid="ignore"):
            Ay = A2.reshape(-1, self.d, self.d) @ y0
            q0 = (c2 + b2 @ y0 + Ay @ y0)[:, None]
            h = (0.5 * b2 + Ay) @ w
            a = A2 @ (w[:, None] * w).reshape(-1, m)
            s = -(h + np.copysign(np.sqrt(h * h - a * q0), h))
            cand = np.concatenate([-(c1 + b1 @ y0)[:, None] / (b1 @ w),
                                   s / a, q0 / s])
        # a root within tol of an end is that end, and so is every root
        # that is not real or not inside: the sort puts them last
        inner = (cand > t_in + tol) & (cand < t_out - tol)
        cand = np.where(inner, cand, t_out)[inner.any(axis=1)]
        _sort_columns(cand)
        k = int(inner.sum(axis=0).max(initial=0))
        P = np.concatenate([t_in[None], cand[:k], t_out[None]])
        for j in range(2, k + 1):
            P[j] = np.where(P[j] - P[j - 1] <= tol, P[j - 1], P[j])
        # inside[j + 1]: piece j, held from piece j - 1 where it is empty
        inside = np.zeros((k + 3, m), dtype=bool)
        for j in range(k + 1):
            mid = 0.5 * (P[j] + P[j + 1])
            ins = _eval_implicit(self.params["expr"], [
                (o[i] + mid * uT[i] - off[i]) / scale
                for i in range(self.d)])
            inside[j + 1] = np.where(P[j + 1] > P[j], ins, inside[j])
        # a change at breakpoint j is its ray's n[j]-th (a row by row sum:
        # np.cumsum down the short axis 0 took 0.4 ms a cast)
        change = inside[1:] != inside[:-1]
        n = change.astype(int)
        for j in range(1, k + 2):
            n[j] += n[j - 1]
        c, r = np.nonzero(change)
        return _packed(m, r, n[c, r] - 1, P[c, r],
                       np.where(inside[c + 1, r], -1.0, 1.0))

    def _sampled_cast(self, o, u):
        # sample each ray inside the bbox at steps of at most
        # diameter / _RAY_STEPS, then bisect every change of membership;
        # beyond the bbox counts as outside. No span inside the bbox is
        # longer than the farthest corner's distance or the diameter, and
        # the step count follows that bound, not the rays of this call, so
        # a ray's crossings depend on the origin and its direction alone.
        # Samples are taken in the base frame, where the expression reads
        # them, step-major: row j + 1 of inside is sample j of every ray,
        # A + at[j] B, so that each numpy loop runs along the rays. The
        # bisection keeps contains' arithmetic, (o + t u - offset) / scale.
        # A ray that misses the bbox is sampled at the origin: its slab
        # bounds meet up to 1e16 away, where exp(x * x) overflows
        lo, hi = np.asarray(self.bbox[0]), np.asarray(self.bbox[1])
        t_in, t_out = _slab(o - 0.5 * (lo + hi), u, 0.5 * (hi - lo))
        m, span = u.shape[0], t_out - t_in
        t_in = np.where(span > 0.0, t_in, 0.0)
        diam = self.diameter()
        steps = max(1, math.ceil(min(self._far(o), diam) * _RAY_STEPS / diam))
        expr, d, scale = self.params["expr"], self.d, self.scale
        off = np.asarray(self.offset)
        frac = np.arange(steps + 1) / steps
        at = frac.copy()
        at[0], at[-1] = _RAY_EDGE, 1.0 - _RAY_EDGE
        A = ((o - off) / scale)[:, None] + u.T * (t_in / scale)
        B = u.T * (span / scale)
        inside = np.zeros((steps + 3, m), dtype=bool)
        width = max(1, min(m, _RAY_CHUNK))
        rows = _RAY_CHUNK // width
        buf = np.empty((d, rows * width))
        for j in range(0, steps + 1, rows):
            a = at[j:j + rows]
            for i in range(0, m, width):
                cols = list(buf[:, :a.size * min(width, m - i)])
                for k, col in enumerate(cols):
                    blk = col.reshape(a.size, -1)
                    np.multiply.outer(a, B[k, i:i + width], out=blk)
                    blk += A[k, i:i + width]
                inside[j + 1:j + 1 + a.size, i:i + width] = \
                    _eval_implicit(expr, cols).reshape(a.size, -1)
        inside[:, span <= 0.0] = False
        # the changes ray by ray, each ray's in step order
        c, r = divmod(np.flatnonzero(inside[1:] != inside[:-1]), m)
        order = np.argsort(r, kind="stable")
        r, c = r[order], c[order]
        sign = np.where(inside[c + 1, r], -1.0, 1.0)
        # a change at either sentinel is the bbox boundary itself
        tc = t_in[r] + span[r] * frac[np.clip(c, 0, steps)]
        mid = (c > 0) & (c <= steps)
        rm, a_in = r[mid], inside[c[mid], r[mid]]
        bm, um = tc[mid], np.ascontiguousarray(u[rm].T)
        am = t_in[rm] + span[rm] * frac[c[mid] - 1]
        for _ in range(_BISECTIONS):
            h = 0.5 * (am + bm)
            same = _eval_implicit(expr, [(o[k] + h * um[k] - off[k]) / scale
                                         for k in range(d)]) == a_in
            am, bm = np.where(same, h, am), np.where(same, bm, h)
        tc[mid] = 0.5 * (am + bm)
        return _packed(m, r, np.arange(r.size) - np.searchsorted(r, r), tc,
                       sign)

    def diameter(self):
        lo, hi = np.asarray(self.bbox[0]), np.asarray(self.bbox[1])
        return float(np.linalg.norm(hi - lo))

    def _far(self, o):
        # distance from o to the bbox corner farthest from it
        lo, hi = np.asarray(self.bbox[0]), np.asarray(self.bbox[1])
        return float(np.linalg.norm(np.maximum(np.abs(o - lo), np.abs(hi - o))))


def _names(d):
    if d <= 3:
        return ("x", "y", "z")[:d]
    return tuple(f"x{k}" for k in range(1, d + 1))


# the calls of the implicit grammar (docs/domains.md): numpy's, by arity
_FUNCTIONS = {"abs": 1, "sqrt": 1, "exp": 1, "cos": 1, "sin": 1, "minimum": 2,
              "maximum": 2, "hypot": 2}


def _eval_implicit(expr, cols):
    # cols: the d coordinate arrays of the points, one per name of _names
    ns = dict(zip(_names(len(cols)), cols), pi=np.pi,
              **{f: getattr(np, f) for f in _FUNCTIONS})
    try:
        out = eval(_checked(expr, len(cols))[0],  # noqa: S307
                   {"__builtins__": {}}, ns)
    except Exception as exc:
        raise ValueError(f"implicit expr failed: {exc}") from None
    mask = np.asarray(out)
    if mask.shape != cols[0].shape or mask.dtype != bool:
        raise ValueError("implicit expr must produce a boolean mask")
    return mask


@lru_cache(maxsize=32)
def _checked(expr, d):
    """(code, atoms) of an implicit expression in d coordinates from one
    parse, or ValueError past the grammar (docs/domains.md). atoms are the
    polynomials c + b.y + y.A.y of the base coordinates y at whose roots
    along a ray membership may change (_comparisons), stacked over the
    linear and over the quadratic ones as ((c, b), (c, b, A.ravel())), or
    None where the sampled cast serves the expression."""
    try:
        tree = ast.parse(expr, mode="eval")
        polys = _comparisons(tree.body, _names(d))
        # int literals compile as floats, so that ** between them overflows
        # at once where exact Python ints would grow without bound
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is int:
                node.value = float(node.value)
        code = compile(tree, "<domain-config>", "eval")
    except (SyntaxError, RecursionError, MemoryError, OverflowError) as exc:
        raise ValueError("implicit expr does not parse: "
                         f"{str(exc) or 'nested too deeply'}") from None
    if polys is None:
        return code, None
    kept = {p.tobytes(): p for p in polys if _degree(p, d)}.values()
    lin = np.array([p[:1 + d] for p in kept if _degree(p, d) == 1]).reshape(
        -1, 1 + d)
    quad = np.array([p for p in kept if _degree(p, d) == 2]).reshape(
        -1, 1 + d + d * d)
    return code, ((lin[:, 0], lin[:, 1:1 + d]),
                  (quad[:, 0], quad[:, 1:1 + d], quad[:, 1 + d:]))


def _degree(p, d):
    return 2 if p[1 + d:].any() else 1 if p[1:1 + d].any() else 0


class _Outside(Exception):
    """A node of an implicit expression outside the exact cast's grammar."""


def _refused(node, why="is outside the grammar of docs/domains.md"):
    return ValueError(f"implicit expr failed: {ast.unparse(node)!r} {why}")


def _comparisons(node, names):
    # the boolean level: & | ~ over comparisons of one operator, each one
    # atom whose roots are where its sides' branches meet. The atoms'
    # polynomials, or None where a side lies outside the exact cast's grammar
    op = type(getattr(node, "op", None))
    if op in (ast.BitAnd, ast.BitOr):
        L, R = _comparisons(node.left, names), _comparisons(node.right, names)
        return None if L is None or R is None else L + R
    if op is ast.Invert:
        return _comparisons(node.operand, names)
    if not isinstance(node, ast.Compare) or len(node.ops) > 1:
        _branches(node, names)
        raise ValueError("implicit expr must produce a boolean mask: "
                         f"{ast.unparse(node)!r} is a number")
    if not isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                    ast.Eq, ast.NotEq)):
        raise _refused(node)
    # the root side first: sqrt(p) against a constant k meets it where
    # p = k^2, and turns nan where p < 0
    (P, root), (Q, qroot) = sorted((_branches(s, names) for s in (
        node.left, node.comparators[0])), key=lambda side: not side[1])
    if P is None or Q is None or root and (
            qroot or any(_degree(q, len(names)) for q in Q)):
        return None
    return (P if root else []) + [p - q * q if root else p - q
                                  for p in P for q in Q]


def _branches(node, names):
    """(P, root) of a numeric node: at every point its value is one of the
    polynomials P (abs, minimum and maximum give every branch's, so P is a
    superset), or with root the square root of one. Raises ValueError past
    the grammar (_checked); P is None past the exact cast's: constants, pi,
    the coordinates, + - * and unary -, / by a constant, ** 2, abs,
    minimum, maximum, and sqrt(p) and hypot(p, q) of degree 2 or less
    under the root, which only a comparison with a constant takes."""
    d = len(names)

    def const(v):
        p = np.zeros(1 + d + d * d)
        p[0] = v
        return p

    def polys(*nodes):
        # each node is checked before any is found outside the exact cast
        out = [_branches(n, names) for n in nodes]
        if any(P is None or root for P, root in out):
            raise _Outside
        return [P for P, _ in out]

    def mul(p, q):
        if _degree(p, d) + _degree(q, d) > 2:
            raise _Outside
        if not _degree(p, d) or not _degree(q, d):
            return p[0] * q if not _degree(p, d) else q[0] * p
        bp, bq = p[1:1 + d], q[1:1 + d]
        A = np.outer(bp, bq)
        return np.concatenate([[p[0] * q[0]], p[0] * bq + q[0] * bp,
                               (0.5 * (A + A.T)).ravel()])

    P, root, op = None, False, type(getattr(node, "op", None))
    try:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if abs(node.value) <= float(np.finfo(float).max):
                P = [const(node.value)]
        elif isinstance(node, ast.Name) and node.id in names + ("pi",):
            P = [const(math.pi)] if node.id == "pi" else [np.eye(
                1 + d + d * d)[1 + names.index(node.id)]]
        elif op in (ast.UAdd, ast.USub):
            [L] = polys(node.operand)
            P = [-p for p in L] if op is ast.USub else None
        elif op in (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow):
            L, R = polys(node.left, node.right)
            k = R[0][0] if len(R) == 1 and not _degree(R[0], d) else None
            if op is ast.Div:
                P = [p / k for p in L] if k else None
            elif op is ast.Pow:
                P = [mul(p, p) for p in L] if k == 2.0 else None
            else:
                op = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: mul}[op]
                P = [op(p, q) for p in L for q in R]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and _FUNCTIONS.get(node.func.id) == len(node.args) \
                and not node.keywords:
            f, (L, *R) = node.func.id, polys(*node.args)
            if f == "abs":
                P = [s * p for p in L for s in (1.0, -1.0)]
            elif f in ("minimum", "maximum"):
                P = L + R[0]
            elif f in ("sqrt", "hypot"):
                P = L if f == "sqrt" else [mul(p, p) + mul(q, q) for p in L
                                           for q in R[0]]
                root = True
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            raise _refused(node, "is a comparison used as a number")
        elif isinstance(node, (ast.BoolOp, ast.Compare)) or op is ast.Not:
            raise ValueError(
                "implicit expr takes the truth value of an array: combine "
                "comparisons with &, |, ~ (not and, or, not) and write "
                "a < x < b as (a < x) & (x < b)")
        else:
            raise _refused(node)
    except _Outside:
        P = None
    if P is None or len(P) > _BRANCHES:
        return None, False
    return P, root


def _sort_columns(a):
    # each column of a (k, m) in ascending order, in place, by the odd-even
    # transposition network: k (k - 1) / 2 compare-exchanges of two rows,
    # each along the rays, where np.sort would sort m columns one by one
    for p in range(len(a)):
        for i in range(p % 2, len(a) - 1, 2):
            lo = np.minimum(a[i], a[i + 1])
            np.maximum(a[i], a[i + 1], out=a[i + 1])
            a[i] = lo


def _packed(m, r, slot, tc, sign):
    # the (t, sign) rows of crossings from each crossing's ray r and its
    # place slot among the ray's crossings, in t order; sign 0 on padding
    k = int(slot.max()) + 1 if slot.size else 1
    t, sg = np.zeros((m, k)), np.zeros((m, k))
    t[r, slot], sg[r, slot] = tc, sign
    return t, sg


def _center_arg(d, center):
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    if c.shape != (d,) or not np.isfinite(c).all():
        raise ValueError("center must be d finite numbers")
    return c


def _tup(a):
    return tuple(float(v) for v in np.asarray(a).ravel())


def _chord(p, u, radius):
    # segment {s >= 0 : |p + s u| <= radius} per row u, (0, 0) when empty
    A = np.einsum("ij,ij->i", u, u)
    B = u @ p
    disc = B * B - A * (p @ p - radius * radius)
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.maximum((-B - root) / A, 0.0)
    hi = np.maximum((-B + root) / A, lo)
    hit = disc > 0.0
    return np.where(hit, lo, 0.0), np.where(hit, hi, 0.0)


def _union(s1, s2):
    # the union of two segments per row as two ordered, disjoint ones: the
    # second is (0, 0) where the union is one segment, both are where it
    # is empty. An empty segment (a = b) is held at infinity, out of play
    (a1, b1), (a2, b2) = ([np.where(b > a, x, np.inf) for x in (a, b)]
                          for a, b in (s1, s2))
    first = a1 <= a2
    ap, bp = np.where(first, a1, a2), np.where(first, b1, b2)
    aq, bq = np.where(first, a2, a1), np.where(first, b2, b1)
    joined = aq <= bp
    segs = ((ap, np.where(joined, np.maximum(bp, bq), bp)),
            (np.where(joined, np.inf, aq), np.where(joined, np.inf, bq)))
    return [tuple(np.where(x == np.inf, 0.0, x) for x in seg) for seg in segs]


def _slab(p, u, half):
    # segment {s >= 0 : |p + s u| <= half componentwise} per row u; an axis
    # with u = 0 bounds nothing while |p| <= half (also on the face, where
    # the quotients are 0/0) and empties the segment otherwise. Axis-major:
    # the reductions over the d axes then run along the rays
    u = np.ascontiguousarray(u.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = (-half - p)[:, None] / u
        s2 = (half - p)[:, None] / u
    flat = u == 0.0
    top = np.where(np.abs(p) <= half, np.inf, -np.inf)[:, None]
    lo = np.maximum(np.max(np.where(flat, -np.inf, np.fmin(s1, s2)), axis=0),
                    0.0)
    hi = np.maximum(np.min(np.where(flat, top, np.fmax(s1, s2)), axis=0), lo)
    return lo, hi


def ball(d, radius=1.0, center=None):
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    c = _center_arg(d, center)
    return Domain(d, "ball", {"radius": float(radius)}, _tup(c), 1.0,
                  unit_ball_volume(d) * radius**d, 0.0,
                  (_tup(c - radius), _tup(c + radius)))


def ellipsoid(d, semiaxes, center=None):
    ax = np.asarray(semiaxes, dtype=float)
    if ax.shape != (d,) or np.any(ax <= 0.0):
        raise ValueError("semiaxes must be d positive numbers")
    c = _center_arg(d, center)
    return Domain(d, "ellipsoid", {"semiaxes": _tup(ax)}, _tup(c), 1.0,
                  unit_ball_volume(d) * float(np.prod(ax)), 0.0,
                  (_tup(c - ax), _tup(c + ax)))


def box(d, sides, center=None):
    s = np.asarray(sides, dtype=float)
    if s.shape != (d,) or np.any(s <= 0.0):
        raise ValueError("sides must be d positive numbers")
    c = _center_arg(d, center)
    return Domain(d, "box", {"sides": _tup(s)}, _tup(c), 1.0,
                  float(np.prod(s)), 0.0,
                  (_tup(c - 0.5 * s), _tup(c + 0.5 * s)))


def annulus(d, inner, outer, center=None):
    if not 0.0 < inner < outer:
        raise ValueError("need 0 < inner < outer")
    c = _center_arg(d, center)
    vol = unit_ball_volume(d) * (outer**d - inner**d)
    return Domain(d, "annulus", {"inner": float(inner),
                                 "outer": float(outer)}, _tup(c), 1.0,
                  vol, 0.0, (_tup(c - outer), _tup(c + outer)))


def _ball_below(d, r, x):
    # volume of the d-ball of radius r on the side {y_1 <= x} of a plane,
    # |x| <= r: |B| r^d (1 + K_d(beta) / K_d(pi/2)) / 2, sin(beta) = x/r,
    # with K_n(beta) = int_0^beta cos^n = (cos^(n-1) sin + (n-1) K_(n-2)) / n
    # by the reduction formula, whose terms share a sign
    t = x / r
    c = math.sqrt((1.0 - t) * (1.0 + t))
    k, w = (math.asin(t), 0.5 * math.pi) if d % 2 == 0 else (t, 1.0)
    for n in range(2 + d % 2, d + 1, 2):
        k = (c ** (n - 1) * t + (n - 1) * k) / n
        w = (n - 1) * w / n
    return 0.5 * unit_ball_volume(d) * r**d * (1.0 + k / w)


def two_balls(d, radii, centers):
    r1, r2 = float(radii[0]), float(radii[1])
    c1 = np.asarray(centers[0], dtype=float)
    c2 = np.asarray(centers[1], dtype=float)
    if r1 <= 0.0 or r2 <= 0.0 or c1.shape != (d,) or c2.shape != (d,) \
            or not np.isfinite(np.concatenate([c1, c2])).all():
        raise ValueError("two balls need positive radii and finite d-vectors")
    lo = _tup(np.minimum(c1 - r1, c2 - r2))
    hi = _tup(np.maximum(c1 + r1, c2 + r2))
    params = {"radii": (r1, r2), "centers": (_tup(c1), _tup(c2))}
    dist = float(np.linalg.norm(c2 - c1))
    if dist >= r1 + r2:
        vol = unit_ball_volume(d) * (r1**d + r2**d)
    elif dist <= abs(r1 - r2):
        vol = unit_ball_volume(d) * max(r1, r2) ** d
    else:
        # the radical plane, at x1 from c1 towards c2, splits the union
        # into the part of each ball on its own center's side
        x1 = (dist**2 + r1**2 - r2**2) / (2.0 * dist)
        vol = _ball_below(d, r1, x1) + _ball_below(d, r2, dist - x1)
    return Domain(d, "two-balls", params, _tup(np.zeros(d)), 1.0, vol, 0.0,
                  (lo, hi))


def implicit_domain(d, expr, bounds, volume=None):
    """Domain from a boolean numpy expression in x, y, z (or x1..xd).

    bounds is the bounding box (lo_1, hi_1, ..., lo_d, hi_d). Unless given
    exactly, the volume is the radial reduction of f = 1 (G = R^d / d)
    about the bbox center, with the default rule's direction count.
    """
    b = np.asarray(bounds, dtype=float)
    if b.shape != (2 * d,) or np.any(b[1::2] <= b[0::2]) \
            or not np.isfinite(b).all():
        raise ValueError("bounds must be d finite ordered (lo, hi) pairs")
    dom = Domain(d, "implicit", {"expr": expr}, _tup(np.zeros(d)), 1.0,
                 1.0 if volume is None else float(volume), 0.0,
                 (_tup(b[0::2]), _tup(b[1::2])))
    if volume is not None:
        return dom
    rows = _Rays(dom, QuadratureSpec("radial").samples,
                 0.5 * (b[0::2] + b[1::2])).rows(lambda t: [t**d])
    vol, err = (float(x) for x in _estimate(rows[0] / d))
    if vol <= 0.0:
        raise ValueError("implicit domain appears empty")
    return replace(dom, volume=vol, volume_error=err)


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature selection: radial (the default), grid, or mc.

    samples is the direction count of the radial rule, the grid's cells
    per axis or mc's draws, by default the kind's own (_SAMPLES); seed
    fixes the mc stream. Both are integers, samples at least 2 and seed at
    least 0 (or ValueError). The integrators return their error bars
    explicitly.
    """

    kind: str
    samples: int = _KIND_DEFAULT
    seed: int = 7

    def __post_init__(self):
        if self.kind not in _SAMPLES:
            raise ValueError("quadrature kind must be radial, grid, or mc")
        if self.samples is _KIND_DEFAULT:
            object.__setattr__(self, "samples", _SAMPLES[self.kind])
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.samples, self.seed)):
            raise ValueError("samples and seed must be integers")
        if self.samples < 2 or self.seed < 0:
            raise ValueError("samples must be >= 2, seed >= 0")


def normalize_volume(domain):
    """Dilate the domain so its volume matches the unit ball's.

    The applied factor accumulates in the scale field. Raises when the
    stored volume estimate is too noisy to fix the scale (relative error
    at least 1e-4).
    """
    target = unit_ball_volume(domain.d)
    if domain.volume_error / domain.volume >= 1e-4:
        raise ValueError("domain volume estimate too noisy to normalize")
    s = (target / domain.volume) ** (1.0 / domain.d)
    lo, hi = np.asarray(domain.bbox[0]), np.asarray(domain.bbox[1])
    return replace(domain, scale=domain.scale * s,
                   offset=_tup(s * np.asarray(domain.offset)),
                   volume=target,
                   volume_error=domain.volume_error * s**domain.d,
                   bbox=(_tup(s * lo), _tup(s * hi)))


def _integrate(domain, f, quad, center):
    """Integrals of the radial functions whose values f(|x - center|)
    returns as a sequence, over the domain from the grid or mc node set,
    whose only consumer this is.

    Returns (values, error bars, covariance). grid: the midpoint rule on
    the bbox cells (quad.samples per axis), bars |full - half| from a pass
    at half the cells per axis, no covariance. mc: hit-or-miss means over
    the uniform stream on the bbox seeded by quad.seed, in _MC_CHUNK draws
    (bounded memory; the fixed chunks fix the stream and the reduction
    order), their standard errors and covariance matrix.
    """
    c = np.asarray(center, dtype=float)
    lo, hi = np.asarray(domain.bbox[0]), np.asarray(domain.bbox[1])

    def values(pts):
        pts = pts[domain.contains(pts)]
        return f(np.linalg.norm(pts - c, axis=1))

    if quad.kind == "grid":
        def midpoint(cells):
            if cells**domain.d > 2**24:
                raise ValueError("tensor grid too large; use mc quadrature")
            steps = (hi - lo) / cells
            axes = [lo[k] + (np.arange(cells) + 0.5) * steps[k]
                    for k in range(domain.d)]
            mesh = np.meshgrid(*axes, indexing="ij")
            g = values(np.stack([m.ravel() for m in mesh], axis=1))
            return float(np.prod(steps)) * np.array([np.sum(gi) for gi in g])

        full = midpoint(quad.samples)
        return full, np.abs(full - midpoint(quad.samples // 2)), None
    n = int(quad.samples)
    w = float(np.prod(hi - lo)) / n
    rng = np.random.default_rng(quad.seed)
    s, ss = 0.0, 0.0
    for done in range(0, n, _MC_CHUNK):
        g = values(rng.uniform(lo, hi, size=(min(_MC_CHUNK, n - done),
                                             domain.d)))
        s = s + np.array([np.sum(gi) for gi in g])
        ss = ss + np.array([[gi @ gj for gj in g] for gi in g])
    cov = w * w * (ss - np.outer(s, s) / n) * (n / (n - 1))
    return w * s, np.sqrt(np.maximum(np.diag(cov), 0.0)), cov


def _product_rule(d, n_az, n_polar):
    # S^1: n_az trapezoid nodes; S^(k+1) from S^k: x_0 = cos(psi), the
    # rest sin(psi) times a point of S^k, dsigma = sin^k(psi) dpsi dsigma_k,
    # which in t = cos(psi) is the Gauss-Gegenbauer weight with alpha = k/2
    phi = 2.0 * math.pi * np.arange(n_az) / n_az
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    w = np.full(n_az, 2.0 * math.pi / n_az)
    for k in range(1, d - 1):
        t, wt = _gauss_gegenbauer(n_polar, 0.5 * k)
        st = np.sqrt(1.0 - t * t)
        dirs = np.concatenate(
            [np.repeat(t, len(w))[:, None],
             (st[:, None, None] * dirs).reshape(-1, dirs.shape[1])], axis=1)
        w = np.outer(wt, w).ravel()
    return dirs, w


def _turn(d, n):
    # the turned rule's rotation. d = 2: half the azimuth step pi / (2n),
    # as far from every node as a turn gets (1 radian falls within 0.05 of
    # a step of the nodes at 2n = 2048, and repeats the rule's error).
    # d > 2: each coordinate plane (k, k+1) turned by 1 radian.
    R = np.eye(d)
    a = math.pi / (2 * n) if d == 2 else 1.0
    c, s = math.cos(a), math.sin(a)
    for k in range(d - 1):
        R[[k, k + 1]] = np.array([[c, -s], [s, c]]) @ R[[k, k + 1]]
    return R


@lru_cache(maxsize=4)
def _sphere_rule(d, samples):
    """Directions of the product rule on S^(d-1) with about samples
    directions, and the weights of the rule and of its companions (cached).

    The rule has n Gauss nodes in each of the d - 2 polar angles and 2n
    trapezoid nodes in the azimuth, 2 n^(d-1) directions (n even). The
    rows of the returned weights: 0 the rule; 1 the rule with half the
    nodes in every angle (in the plane, every other direction); 2-5 the
    four interleaved rules on every fourth azimuth node; 6 the rule
    turned by the fixed rotation _turn. Each row is 0 on the directions
    it does not use.
    """
    if d < 2:
        raise ValueError("radial quadrature needs d >= 2")
    n = 2 * max(1, round(0.5 * (samples / 2.0) ** (1.0 / (d - 1))))
    if 2 * n ** (d - 1) > 2**20:  # the rule has 2^d or more directions
        raise ValueError(f"radial rule in d = {d} needs {2 * n ** (d - 1)} "
                         "directions (more than 2^20); use --quad mc")
    dirs, w = _product_rule(d, 2 * n, n)
    m = len(w)
    az = np.arange(m) % (2 * n) % 4
    blocks = [dirs]
    if d > 2:
        cdirs, cw = _product_rule(d, n, n // 2)
        blocks.append(cdirs)
    blocks.append(dirs @ _turn(d, n).T)
    W = np.zeros((7, sum(len(b) for b in blocks)))
    W[0, :m] = w
    if d == 2:
        W[1, :m] = np.where(az % 2 == 0, 2.0 * w, 0.0)
    else:
        W[1, m:m + len(cw)] = cw
    for j in range(4):
        W[2 + j, :m] = np.where(az == j, 4.0 * w, 0.0)
    W[6, -m:] = w
    dirs = np.concatenate(blocks)
    dirs.flags.writeable = W.flags.writeable = False
    return dirs, W


def _estimate(rows):
    """Value and error estimate from the values of the _sphere_rule rows.

    The estimate is |I - I_half| + max_j |I - I_j| / 4 over the quarter
    rules + 2 |I - I_turned|, plus rounding. It is not a bound. Corners
    and tangent rays leave the rule an O(h^2) or O(h^1.5) error that
    oscillates with where the nodes fall, so any one difference can
    vanish where the error does not: the four quarter rules sample four
    azimuth offsets (for a single corner their spread exceeds six times
    the rule's error), and the turned rule, whose error is as large as
    the rule's, samples new offsets in every angle (in the plane, the
    midpoints of the rule's azimuth steps).
    """
    I = rows[0]
    bar = abs(I - rows[1]) + np.max(np.abs(I - rows[2:6]), axis=0) / 4.0 \
        + 2.0 * abs(I - rows[6])
    return I, bar + _ROUNDING * np.abs(I)


# interpolation at the Gauss-Legendre nodes: Legendre coefficients of the
# polynomial through the values, and of its antiderivative from -1
_NODES, _NODE_WEIGHTS = legendre.leggauss(_GAUSS_NODES)
_TO_SERIES = np.linalg.inv(legendre.legvander(_NODES, _GAUSS_NODES - 1))
_TO_INTEGRAL = legendre.legint(_TO_SERIES, lbnd=-1.0)
# Legendre to power basis, entry (m, n) the coefficient of x^m in P_n:
# (-1)^k C(n, k) C(n + m, n) / 2^n at m = n - 2k, exact in floats
_TO_POWER = np.array([[
    (-1) ** ((n - m) // 2) * math.comb(n, (n - m) // 2) * math.comb(n + m, n)
    / 2**n if m <= n and (n - m) % 2 == 0 else 0.0
    for n in range(_GAUSS_NODES + 1)] for m in range(_GAUSS_NODES + 1)])


def _panel_nodes(umax, panels):
    # the Gauss-Legendre nodes of the panels of width 1 / panels on
    # [0, max(umax, 1)], one panel a row; at most 2^22 nodes (0.45 GB)
    top = math.ceil(max(umax, 1.0) * panels)
    if top * _GAUSS_NODES > 2**22:
        raise ValueError(f"radial tables to r = {umax:.6g} need more than "
                         "2^22 nodes: the domain is too elongated")
    return (np.arange(top)[:, None] + 0.5 * (_NODES + 1.0)) / panels


class _RadialTable:
    """Radial profiles g_i(u) from their values gus[i] at the panel nodes u
    (_panel_nodes).

    u = 1, where the trial profile's third derivative jumps, is a panel
    edge. Inside each panel g_i is the polynomial through the panel's
    values, converted once from its Legendre series to the power basis in
    x in [-1, 1]: calling the table evaluates every g_i (grid and mc
    nodes), and G(d) gives R -> [int_0^R g_i(u) u^(d-1) du], each panel's
    integral exact for polynomials of degree 2 * _GAUSS_NODES - 1 (radial
    rule), with the integral up to the panel's left edge folded into the
    constant coefficient and exactly 0 at R = 0. Both run Horner's rule for
    all profiles at once (_horner), _SERIES_CHUNK radii at a time so that
    the memory it takes stays bounded.
    """

    def __init__(self, u, gus, panels):
        self.u, self.panels = u, panels
        self.gus = [np.reshape(gu, u.shape) for gu in gus]
        self.top = u.shape[0]

    def _horner(self, coefs, R, at=None):
        # values (tables,) + R.shape of the power series coefs, (terms,
        # tables, top), at R (only at the flat indices at, the rest 0), by
        # Horner's rule a chunk of radii at a time: each term one gather of
        # every table's coefficient, one multiply and one add
        R = np.asarray(R, dtype=float)
        if R.size and R.max() > self.top / self.panels:
            raise ValueError("radius beyond the radial table")
        tables = coefs.shape[1]
        flat = R.ravel()
        out = np.zeros((tables, flat.size))
        for i in range(0, flat.size if at is None else at.size, _SERIES_CHUNK):
            part = slice(i, i + _SERIES_CHUNK) if at is None \
                else at[i:i + _SERIES_CHUNK]
            x = flat[part] * self.panels
            j = np.minimum(x.astype(int), self.top - 1)
            x -= j
            x = np.tile(2.0 * x - 1.0, (tables, 1))
            acc = coefs[-1].take(j, axis=1)
            for c in coefs[-2::-1]:
                acc *= x
                acc += c.take(j, axis=1)
            for row, vals in zip(out, acc):  # faster than out[:, part]
                row[part] = vals
        return list(out.reshape((tables,) + R.shape))

    def __call__(self, u):
        return self._horner(np.stack(
            [_TO_POWER[:-1, :-1] @ (gu @ _TO_SERIES.T).T for gu in self.gus],
            axis=1), u)

    def G(self, d):
        coefs = []
        for gu in self.gus:
            y = gu * self.u ** (d - 1)
            c = _TO_POWER @ ((0.5 / self.panels) * (y @ _TO_INTEGRAL.T)).T
            cum = np.cumsum(y @ _NODE_WEIGHTS) * (0.5 / self.panels)
            c[0, 1:] += cum[:-1]
            coefs.append(c)
        coefs = np.stack(coefs, axis=1)

        # G(0) = 0 exactly, and t = 0 is often half of a cast's crossings:
        # only the others are evaluated, by flat index (faster than a mask)
        return lambda R: self._horner(coefs, R,
                                      np.flatnonzero(np.asarray(R) != 0.0))


def _ray_sums(sign, Gt):
    # sum_j sign_j G(t_j) over each ray (row), from +0.0, left to right.
    # Added column by column, each add runs along the rays, where
    # np.sum(..., axis=1) walks every short row in a strided loop
    out = np.zeros(len(Gt))
    for j in range(Gt.shape[1]):
        out += sign[:, j] * Gt[:, j]
    return out


class _Rays:
    """Rays of the radial rule (_sphere_rule) from center: the one record of
    every radial integral from there. Each part is cast once, on first use:
    the main rows (W[0] > 0, which come first), then the companion rows.
    .pieces: center_trial's profile pass (panel nodes u, trial pieces)."""

    def __init__(self, domain, samples, center):
        self.domain, self.samples, self.center = domain, samples, center
        self._hits = []
        self.pieces = None

    def _cast(self, parts=2):
        dirs, W = _sphere_rule(self.domain.d, self.samples)
        m = int(np.count_nonzero(W[0] > 0.0))
        for rows in (dirs[:m], dirs[m:])[len(self._hits):parts]:
            self._hits.append(self.domain.crossings(self.center, rows))
        return self._hits[:parts]

    def rows(self, G):
        # the rule's rows (_estimate) of sum_j sign_j G_i(t_j) over each ray
        W = _sphere_rule(self.domain.d, self.samples)[1]
        return [W @ np.concatenate(s) for s in zip(*(
            [_ray_sums(sign, Gt) for Gt in G(t)]
            for t, sign in self._cast()))]

    def main(self, G):
        # the main rows' directions and their weighted sums of each G_i
        [(t, sign)] = self._cast(1)
        dirs, W = _sphere_rule(self.domain.d, self.samples)
        w = W[0, :len(t)]
        return dirs[:len(t)], [w * _ray_sums(sign, Gt) for Gt in G(t)]


def center_trial(domain, profile, quad=None, tol=None):
    """Record (_Rays) from the v at which the centering field X(v) vanishes.

    X(v) = integral over the domain of rho(|x - v|)/|x - v| (x - v) dx
    = int_{S^{d-1}} theta sum_j sign_j H(t_j) dtheta with
    H(R) = int_0^R rho(r) r^(d-1) dr over the crossings of the rays from
    v: the one centering field. A radial quad gives the sphere rule, any
    other kind the radial rule's default (the grid and mc node sets carry
    only the quotient's integrals).

    X = -grad Phi for the convex Phi(v) = int P(|x - v|) dx, P' = rho, and
    the cast that gives X gives its Jacobian too: dX/dv = -int_{S^{d-1}}
    sum_j sign_j [A(t_j) theta theta^T + B(t_j) (I - theta theta^T)]
    dtheta, A(R) = int_0^R rho' r^(d-1) dr, B(R) = int_0^R (rho/r)
    r^(d-1) dr, negative definite as rho' > 0 and rho/r > 0. That holds
    for the exact integral; the rule's sum over directions can break it
    (on some disjoint 3-d two-balls the rule's dX/dv has a positive
    direction, and centering there does not converge). Newton steps
    from the bbox center, clipped to the bbox, are halved until |X|
    falls; raises with the residual trace when halving no longer moves v
    (the rule's noise floor) or after _CENTER_CASTS casts.

    Returns
    -------
    _Rays
        From v, main rows cast: .center is the offset v with
        |X(v)| <= tol (default 1e-6 |Omega| rho(diam)), .pieces the
        profile pass, to diam, that the quotient's tables reuse.
    """
    if tol is not None and not tol > 0.0:
        raise ValueError("tol must be positive")
    if quad is None or quad.kind != "radial":
        quad = QuadratureSpec("radial")
    # one profile pass, on the panel nodes to the diameter and at it (the
    # default tol): Newton keeps v in the bbox, so no crossing lies beyond
    # the diameter, and the quotient's tables read the same pass (.pieces)
    u = _panel_nodes(domain.diameter(), _panels(profile))
    pc = trial._eval_pieces(profile, np.append(u, domain.diameter()))
    if tol is None:
        tol = 1e-6 * domain.volume * float(pc["rho"][-1])
    pc = {name: vals[:-1] for name, vals in pc.items()}
    G = _RadialTable(u, (pc["rho"], pc["d1"], pc["p"]),
                     _panels(profile)).G(domain.d)
    lo, hi = np.asarray(domain.bbox[0]), np.asarray(domain.bbox[1])

    def cast(v):
        # |X(v)|, the Newton step clipped to the bbox, and the record from
        # v; H, A and B share one Horner pass at the record's crossings
        rays = _Rays(domain, quad.samples, v)
        u, (h, a, b) = rays.main(G)
        if not b.any():
            raise ValueError(_NO_CROSSING)
        X = h @ u
        M = (u.T * (a - b)) @ u + np.sum(b) * np.eye(domain.d)  # -dX/dv
        return (float(np.linalg.norm(X)),
                np.clip(v + np.linalg.solve(M, X), lo, hi) - v, rays)

    res, step, rays = cast(0.5 * (lo + hi))
    trace = [res]
    while res > tol:
        nxt = rays.center + step
        if len(trace) == _CENTER_CASTS or np.array_equal(nxt, rays.center):
            shown = ", ".join(f"{t:.3e}" for t in trace[-6:])
            raise RuntimeError(
                f"centering did not converge: |X| = {res:.3e} > tol = "
                f"{tol:.3e}; residual trace tail [{shown}]")
        r, nxt_step, nxt_rays = cast(nxt)
        trace.append(r)
        step, res, rays = (nxt_step, r, nxt_rays) if r < res \
            else (0.5 * step, res, rays)
    rays.pieces = u, pc
    return rays


def _panels(profile):
    # radial panels per unit radius: the profile varies on the scale 1/b
    return _PANELS + math.ceil(2.0 * profile.mode.b)


def quotient_bound(domain, tau, quad=None, center=None):
    """Upper bound for the fundamental tone from the trial quotient.

    The trial profile is built for the ball of the same volume: with
    s = (|Omega| / |B_1|)^(1/d) the quotient is taken on Omega / s
    (normalize_volume, which raises where the volume estimate is too
    noisy; an explicit center maps to center / s) with the unit-ball mode
    at tension tau s^2, and scaled back by the law Q = s^-4 Q(Omega / s).

    Parameters
    ----------
    domain : Domain
    tau : float
        Tension, > 0.
    quad : QuadratureSpec, optional
        Defaults to the radial rule, QuadratureSpec("radial").
    center : array_like, optional
        Trial center (d finite numbers); default is the domain offset for
        symmetric shapes and the zero of X (center_trial) otherwise.

    Returns
    -------
    (Q, error_estimate)
        The quotient and its quadrature error estimate.
    """
    d = domain.d
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    s = (domain.volume / unit_ball_volume(d)) ** (1.0 / d)
    if center is not None:
        center = _center_arg(d, center) / s
    Q, err = _quotient(normalize_volume(domain),
                       fundamental_tone(tau * s * s, d, 1.0), quad, center)
    return Q / s**4, err / s**4


def _quotient(domain, mode, quad, center=None, tol=None):
    """quotient_bound on a volume-normalized domain with its unit-ball mode
    solved already: (Q, error bar) about center, by default the trial
    center (a symmetric shape's offset, else center_trial with tol).

    radial: Q and its bar from the ratio's rows of the center's record
    (_estimate); grid: the ratio's relative bar is the sum of the
    relative bars; mc: both integrands share one sample stream and the
    delta method keeps their covariance. Grid and mc evaluate the profile
    through the table, radial through its G.
    """
    if tol is not None and not tol > 0.0:
        raise ValueError("tol must be positive")
    if quad is None:
        quad = QuadratureSpec("radial")
    profile = trial.TrialProfile(mode)
    if center is None and domain.shape not in _SYMMETRIC:
        rays = center_trial(domain, profile, quad, tol=tol)
    else:
        rays = _Rays(domain, quad.samples, np.asarray(
            domain.offset if center is None else center, dtype=float))
    if rays.pieces is None:
        # a profile pass to the farthest crossing (radial) or bbox corner
        far = max(float(t.max()) for t, _ in rays._cast()) \
            if quad.kind == "radial" else domain._far(rays.center)
        u = _panel_nodes(far, _panels(profile))
        rays.pieces = u, trial._eval_pieces(profile, u.ravel())
    u, pc = rays.pieces
    table = _RadialTable(u, (trial._numerator(mode, pc), pc["rho"] ** 2),
                         _panels(profile))
    if quad.kind == "radial":
        num, den = rays.rows(table.G(domain.d))
        if 0.0 in den:
            raise ValueError(_NO_CROSSING if den[0] == 0.0 else
                             "a companion of the radial rule crosses no part "
                             "of the domain: raise --samples")
        Q, eq = (float(x) for x in _estimate(num / den))
        return Q, abs(Q) * (eq / abs(Q))
    (num, den), (en, ed), cov = _integrate(domain, table, quad, rays.center)
    if den == 0.0:
        raise ValueError("no quadrature nodes fall inside the domain")
    if cov is None:
        rel = en / abs(num) + ed / abs(den)
    else:
        rel = math.sqrt(max(0.0, cov[0, 0] / num**2 + cov[1, 1] / den**2
                            - 2.0 * cov[0, 1] / (num * den)))
    Q = float(num) / float(den)
    return Q, abs(Q) * float(rel)


def parse_domain_config(text):
    """Domain from key=value lines (see docs/domains.md for the grammar).

    Raises ValueError with a diagnostic on any malformed input.
    """
    entries = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key=value")
        key, val = line.split("=", 1)
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ValueError(f"config line {ln}: empty key or value")
        if key in entries:
            raise ValueError(f"config line {ln}: duplicate key {key!r}")
        entries[key] = val

    def floats(key, val=None):
        val = entries.pop(key) if val is None else val
        try:
            out = [float(t) for t in val.split(",")]
        except ValueError:
            raise ValueError(f"config: {key} must be comma-separated "
                             f"numbers, got {val!r}") from None
        if not all(map(math.isfinite, out)):
            raise ValueError(f"config: {key} must be finite numbers")
        return out

    for req in ("shape", "dim"):
        if req not in entries:
            raise ValueError(f"config: missing required key {req!r}")
    shape = entries.pop("shape")
    if shape not in _SHAPES:
        raise ValueError(f"config: unknown shape {shape!r}")
    try:
        d = int(entries.pop("dim"))
    except ValueError:
        raise ValueError("config: dim must be an integer") from None
    if d < 2:
        raise ValueError("config: dim must be at least 2")
    center = None
    if "center" in entries:
        if shape not in _SYMMETRIC:
            raise ValueError(f"config: shape {shape!r} does not take "
                             "center (positions come from its own keys)")
        center = floats("center")
        if len(center) != d:
            raise ValueError("config: center must have dim entries")
    missing = [k for k in _SHAPES[shape] if k not in entries]
    if missing:
        raise ValueError(f"config: shape {shape!r} needs keys "
                         f"{', '.join(missing)}")

    if shape == "ball":
        dom = ball(d, floats("radius")[0], center)
    elif shape == "ellipsoid":
        dom = ellipsoid(d, floats("semiaxes"), center)
    elif shape == "box":
        dom = box(d, floats("sides"), center)
    elif shape == "annulus":
        dom = annulus(d, floats("inner")[0], floats("outer")[0], center)
    elif shape == "two-balls":
        radii = floats("radii")
        groups = entries.pop("centers").split(";")
        if len(radii) != 2 or len(groups) != 2:
            raise ValueError("config: two-balls needs radii=r1,r2 and "
                             "centers=c1;c2")
        centers = [floats("centers", g) for g in groups]
        if any(len(cc) != d for cc in centers):
            raise ValueError("config: each center must have dim entries")
        dom = two_balls(d, radii, centers)
    else:
        volume = floats("volume")[0] if "volume" in entries else None
        dom = implicit_domain(d, entries.pop("expr"), floats("bounds"),
                              volume)
    if entries:
        raise ValueError("config: unrecognized keys "
                         f"{', '.join(sorted(entries))}")
    return dom


def load_domain(path):
    with open(path, encoding="utf-8") as fh:
        return parse_domain_config(fh.read())
