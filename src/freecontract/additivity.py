"""Closed-form analysis of the entropy additivity violation.

For output dimension k and compression fraction t = k^-r (r in [1, 2)),
the product channel's minimum output entropy is at most

    product_bound(k, t) = 2*(1-t)*log(k) + h(t),

while a second-order Taylor control of the entropy around the maximally
mixed state, valid on the simplex slab l_{k,t} <= lambda_i <= u_{k,t} cut
out by the overlap function

    phi(a, b) = a + b - 2ab + 2*sqrt(a*b*(1-a)*(1-b)),

lower-bounds twice the single-channel entropy by 2*f(k, t) with

    f(k, t) = log(k) - [k/2 + (u-1/k)/(6*l^2)] * t^2 * (1 + 2*sqrt((1-t)/(t*k)))^2.

The gap g(k, r) = product_bound - 2*f is negative exactly where additivity
must fail.  Near its zero crossing g is a ~1e-12 residue of ~10-sized
terms, so the final combination uses math.fsum (exactly rounded
summation), leaving only the few-ulp representation error of each term;
cancellation-prone subexpressions (u - 1/k and l) use algebraically
rearranged forms with no subtractive loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError, DomainError
from .qchannel import QuantumState, binary_entropy, concentration_radius, entropy

# computed slab lower bounds carry ~1e-17 absolute rounding error, so values
# below this floor are indistinguishable from the degenerate case l = 0
_L_FLOOR = 1e-13
_SVG_WIDTH, _SVG_HEIGHT = 640, 480   # contour drawing size in pixels


def phi_overlap(a: float, b: float) -> float:
    """a + b - 2ab + 2*sqrt(ab(1-a)(1-b)), clamped to [0, 1] against rounding."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError("phi is defined on [0,1] x [0,1]")
    value = a + b - 2.0 * a * b + 2.0 * math.sqrt(a * b * (1.0 - a) * (1.0 - b))
    return min(max(value, 0.0), 1.0)


def simplex_bounds(k: int, t: float) -> tuple[float, float]:
    """(l, u) with l = 1 - phi((k-1)/k, t) and u = phi(1/k, t).

    l is evaluated as (sqrt(a*b) - sqrt((1-a)(1-b)))^2 with a = (k-1)/k,
    b = t, which is the same quantity without subtractive cancellation;
    it vanishes exactly when t = 1/k.
    """
    if k < 2:
        raise DomainError("need k >= 2")
    if not 0.0 < t <= 1.0:
        raise DomainError("need t in (0, 1]")
    a = (k - 1) / k
    lower = (math.sqrt(a * t) - math.sqrt((1.0 - a) * (1.0 - t))) ** 2
    upper = phi_overlap(1.0 / k, t)
    lower = min(max(lower, 0.0), 1.0)
    # u >= 1/k holds for every t; l <= 1/k only up to t = 1/k (beyond it the
    # slab stops being an enclosure of the uniform point)
    if upper < 1.0 / k - 1e-12:
        raise ConvergenceError("simplex upper bound fell below 1/k")
    return lower, upper


def _u_excess(k: int, t: float) -> float:
    # u_{k,t} - 1/k = t(1 - 2/k) + 2*sqrt((t/k)(1-1/k)(1-t)): all terms
    # nonnegative for k >= 2, so no cancellation
    return t * (1.0 - 2.0 / k) + 2.0 * math.sqrt((t / k) * (1.0 - 1.0 / k) * (1.0 - t))


def taylor_lower_f(k: int, t: float) -> float:
    """Second-order entropy lower bound f(k, t) for single-channel outputs.

    Requires l_{k,t} > 0; at t = 1/k the slab degenerates (l = 0) and the
    bound is undefined.
    """
    lower, _ = simplex_bounds(k, t)
    if lower <= _L_FLOOR:
        raise DomainError("slab lower bound vanished (t too close to 1/k); f undefined")
    bracket = k / 2.0 + _u_excess(k, t) / (6.0 * lower * lower)
    correction = bracket * concentration_radius(k, t) ** 2
    return math.fsum([math.log(k), -correction])


def _product_terms(k: int, t: float) -> tuple[float, float]:
    """The two terms 2*(1-t)*log(k) and h(t) of the product bound."""
    return 2.0 * (1.0 - t) * math.log(k), binary_entropy(t)


def product_bound(k: int, t: float) -> float:
    """Upper bound 2*(1-t)*log(k) + h(t) on the product channel's minimum
    output entropy (asserted for t >= k^-2; smaller t is flagged)."""
    if k < 2:
        raise DomainError("need k >= 2")
    if not 0.0 < t <= 1.0:
        raise DomainError("need t in (0, 1]")
    if t < k**-2.0:
        raise DomainError("the product bound is asserted for t >= 1/k^2")
    log_term, h_term = _product_terms(k, t)
    return log_term + h_term


def hastings_gap(state: QuantumState) -> tuple[float, float]:
    """(log k - H(X), k * Tr(X - I/k)^2); the left side never exceeds the right."""
    lam = state.eigenvalues()
    k = state.dim
    lhs = math.log(k) - entropy(state)
    rhs = k * float(np.sum((lam - 1.0 / k) ** 2))
    return lhs, rhs


@dataclass(frozen=True)
class ViolationReport:
    """Gap evaluation at one (k, r) point; negative g certifies violation."""

    k: int
    r: float
    t: float
    g: float
    product_bound: float
    single_lower: float
    violated: bool

    def to_json(self) -> dict:
        return {"k": self.k, "r": self.r, "t": self.t, "g": self.g,
                "product_bound": self.product_bound,
                "single_lower": self.single_lower, "violated": self.violated}


def gap_g(k: int, r: float) -> ViolationReport:
    """g(k, r) = 2*(1-t)*log(k) + h(t) - 2*f(k, t) at t = k^-r.

    The three terms are ~2*log(k) in size while g itself can be ~1e-12, so
    they are combined with exact compensated summation (math.fsum, which
    sums as if in infinite precision and rounds once).
    """
    if k < 2:
        raise DomainError("need k >= 2")
    r = float(r)
    if not 1.0 <= r < 2.0:
        raise DomainError("need r in [1, 2)")
    t = float(k) ** (-r)
    f_val = taylor_lower_f(k, t)
    log_term, h_term = _product_terms(k, t)
    g = math.fsum([log_term, h_term, -2.0 * f_val])
    return ViolationReport(k=int(k), r=r, t=t, g=g, product_bound=log_term + h_term,
                           single_lower=f_val, violated=g < 0.0)


def _gap_or_nan(k: int, r: float) -> ViolationReport:
    try:
        return gap_g(k, r)
    except DomainError:
        t = float(k) ** (-r)
        log_term, h_term = _product_terms(k, t)
        return ViolationReport(k=int(k), r=float(r), t=t, g=math.nan,
                               product_bound=log_term + h_term,
                               single_lower=math.nan, violated=False)


@dataclass(frozen=True)
class ScanSummary:
    """Minimal violating dimension found on a scan grid (None if no cell
    had g < 0)."""

    min_k: Optional[int]
    argmin_r: Optional[float]
    g_at_min: Optional[float]
    cells: int
    violations: int

    def to_json(self) -> dict:
        return {"min_k": self.min_k, "argmin_r": self.argmin_r,
                "g_at_min": self.g_at_min, "cells": self.cells,
                "violations": self.violations}


def k_grid(kmin: float, kmax: float, points: int) -> list[int]:
    """Log-spaced integer grid (deduplicated, ascending)."""
    if not (2 <= kmin <= kmax) or points < 1:
        raise DomainError("need 2 <= kmin <= kmax and points >= 1")
    if points == 1 or kmin == kmax:
        return [int(round(kmin))]
    ks = np.unique(np.rint(np.geomspace(kmin, kmax, points)).astype(int))
    return [int(k) for k in ks if k >= 2]


def r_grid(rmin: float, rmax: float, rstep: float) -> list[float]:
    """Arithmetic grid on [rmin, rmax) (right endpoint excluded)."""
    if not (1.0 <= rmin < rmax <= 2.0) or rstep <= 0:
        raise DomainError("need 1 <= rmin < rmax <= 2 and rstep > 0")
    count = int(math.ceil((rmax - rmin) / rstep - 1e-12))
    return [rmin + j * rstep for j in range(count) if rmin + j * rstep < rmax]


def scan_violation(
    ks: Union[Sequence[int], Iterable[int]],
    rs: Union[Sequence[float], Iterable[float]],
) -> tuple[list[ViolationReport], ScanSummary]:
    """Evaluate the gap over a (k, r) grid and locate the smallest violating k.

    Cells where f is undefined (t = 1/k exactly, e.g. at r = 1) are recorded
    with g = NaN and excluded from the search.  Rows come back in (k, r)
    grid order.
    """
    ks = list(ks)
    rs = list(rs)
    if not ks or not rs:
        raise DomainError("scan grid must be nonempty")
    rows = [_gap_or_nan(k, r) for k in ks for r in rs]
    best: Optional[ViolationReport] = None
    violations = 0
    for row in rows:
        if row.violated:
            violations += 1
            if best is None or row.k < best.k or (row.k == best.k and row.g < best.g):
                best = row
    summary = ScanSummary(
        min_k=best.k if best else None,
        argmin_r=best.r if best else None,
        g_at_min=best.g if best else None,
        cells=len(rows),
        violations=violations,
    )
    return rows, summary


def scan_csv_text(rows: Sequence[ViolationReport]) -> str:
    """Contour-ready CSV with header k,r,t,g (LF line endings)."""
    lines = ["k,r,t,g"]
    lines.extend(f"{row.k},{row.r!r},{row.t!r},{row.g!r}" for row in rows)
    return "\n".join(lines) + "\n"


def contour_segments(rows: Sequence[ViolationReport]
                     ) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Marching-squares line segments of the g = 0 contour in (log10 k, r).

    Cells touching NaN values are skipped; ambiguous saddle cells are split
    by the mean-value rule.
    """
    ks = sorted({row.k for row in rows})
    rs = sorted({row.r for row in rows})
    if len(ks) < 2 or len(rs) < 2:
        return []
    index = {(row.k, row.r): row.g for row in rows}
    grid = np.full((len(ks), len(rs)), math.nan)
    for i, k in enumerate(ks):
        for j, r in enumerate(rs):
            grid[i, j] = index.get((k, r), math.nan)
    xs = np.log10(ks)
    segments = []
    for i in range(len(ks) - 1):
        for j in range(len(rs) - 1):
            z = [grid[i, j], grid[i + 1, j], grid[i + 1, j + 1], grid[i, j + 1]]
            if any(math.isnan(v) for v in z):
                continue
            corners = [(xs[i], rs[j]), (xs[i + 1], rs[j]),
                       (xs[i + 1], rs[j + 1]), (xs[i], rs[j + 1])]
            above = [v > 0.0 for v in z]
            if all(above) or not any(above):
                continue
            crossings = []
            for e in range(4):
                v0, v1 = z[e], z[(e + 1) % 4]
                if (v0 > 0.0) != (v1 > 0.0):
                    frac = -v0 / (v1 - v0)
                    p0, p1 = corners[e], corners[(e + 1) % 4]
                    crossings.append((p0[0] + frac * (p1[0] - p0[0]),
                                      p0[1] + frac * (p1[1] - p0[1])))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                center_above = (sum(z) / 4.0) > 0.0
                if center_above == above[0]:
                    segments.append((crossings[0], crossings[3]))
                    segments.append((crossings[1], crossings[2]))
                else:
                    segments.append((crossings[0], crossings[1]))
                    segments.append((crossings[2], crossings[3]))
    return segments


def contour_svg(rows: Sequence[ViolationReport]) -> str:
    """Zero contour of the scan as a plain SVG drawing of line segments."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    segments = contour_segments(rows)
    ks = sorted({row.k for row in rows})
    rs = sorted({row.r for row in rows})
    x_lo, x_hi = math.log10(ks[0]), math.log10(ks[-1])
    y_lo, y_hi = rs[0], rs[-1]
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def to_px(pt: tuple[float, float]) -> tuple[float, float]:
        px = 40 + (pt[0] - x_lo) / x_span * (width - 60)
        py = height - 30 - (pt[1] - y_lo) / y_span * (height - 50)
        return px, py

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">log10(k)</text>',
        '<text x="14" y="16" font-size="12">r</text>',
    ]
    for a, b in segments:
        (x1, y1), (x2, y2) = to_px(a), to_px(b)
        lines.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                     f'y2="{y2:.2f}" stroke="black" stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
