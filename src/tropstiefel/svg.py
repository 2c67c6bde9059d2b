"""Best-effort SVG of the tropical hyperplane arrangement and of the
bounded tree, in exact integer pixel arithmetic only.

Only the two SVG paths of the command line import this module:
``render`` and ``bounded --format svg``.
"""

from __future__ import annotations

from .core import DomainError


def _svg_document(width, height, body):
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    return head + "".join(body) + "</svg>"


def _svg_arrangement(A, **budget):
    from .arrangement import cell_point, enumerate_covectors, skeleton
    if A.d > 3:
        raise DomainError("BAD_FORMAT", "arrangement rendering requires d <= 3")
    tc = enumerate_covectors(A, **budget)
    size, margin = 400, 40
    # gauge-fixed coordinates: use (x_2, x_3) (missing coordinates are 0)
    pts = {tau: (cell_point(A, tau) + (0, 0))[1:3] for tau in tc}
    segments = []
    for tau, ends in skeleton(tc)[1]:
        if len(ends) == 2:
            segments.append(tuple(pts[v] for v in ends))
        elif len(ends) == 1:
            # extend the ray through the relative-interior witness
            a, mid = pts[ends[0]], pts[tau]
            segments.append((a, (2 * mid[0] - a[0], 2 * mid[1] - a[1])))
    # the pixel bounds span every drawn point, the rays' far ends included
    bounds = [(min(axis), max(axis) - min(axis)) for axis in zip(*pts.values(), *(b for _, b in segments))]

    def _px(point):
        """The integer pixel pair of an exact point (u, v): each coordinate's
        share of its axis span, in [0, 1], times ``size``, floored exactly."""
        return tuple(margin + size // 2 if span == 0 else margin + (value - lo) * size // span
                     for value, (lo, span) in zip(point, bounds))

    body = ['<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (*_px(a), *_px(b)) for a, b in segments]
    for tau, dim in tc.items():
        x, y = _px(pts[tau])
        if dim == 0:
            body.append('<circle cx="%d" cy="%d" r="4" fill="black"/>' % (x, y))
        label = "".join("{" + ",".join(str(i) for i in I) + "}" for I in tau)
        body.append('<text x="%d" y="%d" font-size="9">%s</text>' % (x + 6, y - 6, label))
    return _svg_document(size + 2 * margin, size + 2 * margin, body)


def _svg_tree(A, **budget):
    from .linspace import bounded_skeleton
    if A.d != 2:
        raise DomainError("BAD_FORMAT", "tree rendering requires d = 2")
    verts, segs = bounded_skeleton(A, **budget)
    order = {v: idx for idx, v in enumerate(verts)}
    step, y0, margin = 90, 60, 40
    body = []
    for _, ends in segs:
        if len(ends) == 2:
            x1, x2 = (margin + step * order[v] for v in ends)
            body.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (x1, y0, x2, y0))
    body += ['<circle cx="%d" cy="%d" r="4" fill="black"/>' % (margin + step * k, y0) for k in range(len(verts))]
    width = 2 * margin + step * max(len(verts) - 1, 0)
    return _svg_document(max(width, 2 * margin), 2 * y0, body)
