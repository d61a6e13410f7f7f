"""Deterministic SVG pictures of translated line arrangements (k = 2).

Every coordinate is computed in exact rationals and only converted to a
fixed-precision decimal at the last moment, so identical inputs give
byte-identical documents.
"""

from fractions import Fraction

from .arrangement import Arrangement
from .discriminantal import translated_cone
from .linalg import _scalar, dot, maximal_minors


def _check_drawable(a: Arrangement, what: str) -> None:
    if a.k != 2:
        raise ValueError(f"can only {what} plane arrangements")
    if a.p is not None:
        raise ValueError(f"can only {what} arrangements over Q: a picture "
                         f"needs rational coordinates, not F_{a.p}")


def _intersections(cone: Arrangement):
    # Cramer's rule for each non-parallel pair of cone rows u x + v y = w
    rows, p = cone.rows, cone.p
    pts = []
    for (i, j), d in maximal_minors([r[:2] for r in rows], p).items():
        if d:
            (u, v, w), (u2, v2, w2) = rows[i], rows[j]
            pts.append((_scalar(w * v2 - v * w2, d, p), _scalar(u * w2 - w * u2, d, p)))
    return pts


def _concurrent_points(a: Arrangement, t, pts) -> list:
    """The distinct points of pts that lie on three or more translated lines."""
    return [p for p in sorted(set(pts))
            if sum(1 for i in range(1, a.n + 1) if dot(a.normal(i), p) == t[i - 1]) >= 3]


def _foot(normal, ti, point):
    # closest point of the line {x : normal.x = ti} to `point`
    nn = dot(normal, normal)
    lam = (ti - dot(normal, point)) / nn
    return (point[0] + lam * normal[0], point[1] + lam * normal[1])


def _clip(p0, d, x0, y0, x1, y1):
    """Liang-Barsky: clip the parametric line p0 + s*d to the box.
    Returns (smin, smax) or None when the line misses the box."""
    smin, smax = None, None
    lo = [x0, y0]
    hi = [x1, y1]
    s_lo, s_hi = Fraction(-10 ** 9), Fraction(10 ** 9)
    for axis in (0, 1):
        if d[axis] == 0:
            if not lo[axis] <= p0[axis] <= hi[axis]:
                return None
            continue
        a = (lo[axis] - p0[axis]) / d[axis]
        b = (hi[axis] - p0[axis]) / d[axis]
        if a > b:
            a, b = b, a
        s_lo = max(s_lo, a)
        s_hi = min(s_hi, b)
    if s_lo > s_hi:
        return None
    return s_lo, s_hi


def _fmt(x) -> str:
    return f"{float(x):.3f}"


def render_svg(a: Arrangement, t=None, width: int = 640, pad=Fraction(1, 5)) -> str:
    """Standalone SVG of the translated arrangement.

    The viewport is the bounding box of all pairwise intersection points,
    padded by `pad` on each side; lines with no finite crossing are pulled
    in through their closest point, so nothing is dropped.  Points lying
    on three or more lines are marked.  Raises ValueError unless a is a
    plane arrangement over Q.
    """
    _check_drawable(a, "draw")
    if t is None:
        t = tuple(Fraction(0) for _ in range(a.n))
    t = tuple(t)
    pts = _intersections(translated_cone(a, t))
    anchor = pts[0] if pts else (Fraction(0), Fraction(0))
    boxpts = list(pts)
    for i in range(1, a.n + 1):
        if not any(dot(a.normal(i), p) == t[i - 1] for p in pts):
            boxpts.append(_foot(a.normal(i), t[i - 1], anchor))
    if not boxpts:
        boxpts = [(Fraction(0), Fraction(0))]
    xs = [p[0] for p in boxpts]
    ys = [p[1] for p in boxpts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    spanx = x1 - x0
    spany = y1 - y0
    if spanx == 0:
        x0, x1 = x0 - 1, x1 + 1
        spanx = x1 - x0
    if spany == 0:
        y0, y1 = y0 - 1, y1 + 1
        spany = y1 - y0
    x0, x1 = x0 - pad * spanx, x1 + pad * spanx
    y0, y1 = y0 - pad * spany, y1 + pad * spany
    spanx, spany = x1 - x0, y1 - y0
    height = int(width * float(spany / spanx)) or 1
    sx = Fraction(width) / spanx
    sy = Fraction(height) / spany

    def to_px(p):
        return ((p[0] - x0) * sx, (y1 - p[1]) * sy)  # y grows downward in SVG

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(1, a.n + 1):
        nv = a.normal(i)
        d = (-nv[1], nv[0])
        p0 = _foot(nv, t[i - 1], ((x0 + x1) / 2, (y0 + y1) / 2))
        seg = _clip(p0, d, x0, y0, x1, y1)
        if seg is None:
            continue
        s_lo, s_hi = seg
        pa = to_px((p0[0] + s_lo * d[0], p0[1] + s_lo * d[1]))
        pb = to_px((p0[0] + s_hi * d[0], p0[1] + s_hi * d[1]))
        out.append(f'<line x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" '
                   f'x2="{_fmt(pb[0])}" y2="{_fmt(pb[1])}" '
                   f'stroke="black" stroke-width="1"/>')
        lx = (pa[0] * 9 + pb[0]) / 10
        ly = (pa[1] * 9 + pb[1]) / 10
        out.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="12" '
                   f'fill="#444">H_{i}</text>')
    for p in _concurrent_points(a, t, pts):
        px = to_px(p)
        out.append(f'<circle cx="{_fmt(px[0])}" cy="{_fmt(px[1])}" r="4" '
                   f'fill="crimson"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def concurrent_point_count(a: Arrangement, t) -> int:
    """Number of distinct points where three or more translated lines meet.
    Raises ValueError unless a is a plane arrangement over Q."""
    _check_drawable(a, "count crossings of")
    t = tuple(t)
    return len(_concurrent_points(a, t, _intersections(translated_cone(a, t))))
