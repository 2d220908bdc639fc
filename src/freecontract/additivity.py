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
must fail.  One array kernel evaluates it on a (k column, t row) grid; a
scan is one pass of it and `gap_g` runs it on a 1 x 1 grid.
Near its zero g is a ~1e-12 residue of ~10-sized terms, so the terms are
summed exactly by two TwoSums (Ogita-Rump-Oishi, SIAM J. Sci. Comput. 26,
2005), error terms last.  Neither slab bound cancels as t -> 1/k: u - 1/k
is a sum of nonnegative terms, and l = (t - 1/k)^2 / (sqrt(a*t) +
sqrt((1-t)/k))^2 with a = (k-1)/k has one, exact, subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError
from .qchannel import QuantumState, binary_entropy, concentration_radius, entropy

# l is exact to ~1e-16/sqrt(k*l) relative; below this floor t is within
# ~6e-7/sqrt(k) of 1/k, and f (which divides by l^2) is treated as undefined
_L_FLOOR = 1e-13
_SVG_WIDTH, _SVG_HEIGHT = 640, 480   # contour drawing size in pixels


def _phi(a, b):
    return np.clip(a + b - 2.0 * a * b + 2.0 * np.sqrt(a * b * (1.0 - a) * (1.0 - b)), 0.0, 1.0)


def phi_overlap(a: float, b: float) -> float:
    """a + b - 2ab + 2*sqrt(ab(1-a)(1-b)), clamped to [0, 1] against rounding."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError("phi is defined on [0,1] x [0,1]")
    return float(_phi(float(a), float(b)))


# -- the kernel: k is a column of floats and t an array broadcasting with it
def _t_grid(ks, rs) -> np.ndarray:
    # float_power is libm's pow; numpy's ** can differ from it in the last bit
    return np.float_power(np.asarray(ks, dtype=float)[:, None], -np.asarray(rs, dtype=float))


def _slab(k: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inv_k = 1.0 / k
    root_sum = np.sqrt((k - 1.0) / k * t) + np.sqrt(inv_k * (1.0 - t))
    lower = np.minimum((t - inv_k) ** 2 / root_sum ** 2, 1.0)
    upper = _phi(inv_k, t)
    # u >= 1/k for every t (l <= 1/k only up to t = 1/k, where the slab stops enclosing 1/k)
    if np.any(upper < inv_k - 1e-12):
        raise ConvergenceError("simplex upper bound fell below 1/k")
    return lower, upper


def _taylor_f(k: np.ndarray, t: np.ndarray) -> np.ndarray:
    lower, _ = _slab(k, t)
    # u - 1/k = t(1 - 2/k) + 2*sqrt((t/k)(1-1/k)(1-t)): all terms nonnegative
    u_excess = t * (1.0 - 2.0 / k) + 2.0 * np.sqrt((t / k) * (1.0 - 1.0 / k) * (1.0 - t))
    radius = concentration_radius(k, t)
    with np.errstate(divide="ignore"):
        f = np.log(k) - (k / 2.0 + u_excess / (6.0 * lower * lower)) * radius ** 2
    return np.where(lower > _L_FLOOR, f, np.nan)


def _product_terms(k: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the product bound's terms 2*(1-t)*log(k) and h(t)
    return 2.0 * (1.0 - t) * np.log(k), binary_entropy(t)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the error e with s + e = a + b exactly."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _gap(k: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, product bound, f); g and f are NaN where l <= _L_FLOOR."""
    log_term, h_term = _product_terms(k, t)
    f = _taylor_f(k, t)
    bound, e1 = _two_sum(log_term, h_term)
    g, e2 = _two_sum(bound, -2.0 * f)
    return g + (e1 + e2), bound, f


def product_bound(k: int, t: float) -> float:
    """Upper bound 2*(1-t)*log(k) + h(t) on the product channel's minimum
    output entropy (asserted for t >= k^-2; smaller t is flagged)."""
    if k < 2:
        raise DomainError("need k >= 2")
    if not 0.0 < t <= 1.0:
        raise DomainError("need t in (0, 1]")
    if t < k**-2.0:
        raise DomainError("the product bound is asserted for t >= 1/k^2")
    return float(np.add(*_product_terms(np.float64(k), np.float64(t))))


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


def gap_g(k: int, r: float) -> ViolationReport:
    """g(k, r) = 2*(1-t)*log(k) + h(t) - 2*f(k, t) at t = k^-r."""
    if k < 2:
        raise DomainError("need k >= 2")
    r = float(r)
    if not 1.0 <= r < 2.0:
        raise DomainError("need r in [1, 2)")
    t = _t_grid([k], [r])
    g, bound, f = (float(v[0, 0]) for v in _gap(np.array([[float(k)]]), t))
    if math.isnan(f):
        raise DomainError("slab lower bound vanished (t too close to 1/k); f undefined")
    return ViolationReport(k=int(k), r=r, t=float(t[0, 0]), g=g, product_bound=bound,
                           single_lower=f, violated=g < 0.0)


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """The gap on a (k, r) grid: `t` and `g` have shape (len(ks), len(rs)),
    and g is NaN where f is undefined (t = 1/k, e.g. at r = 1)."""

    ks: np.ndarray
    rs: np.ndarray
    t: np.ndarray
    g: np.ndarray

    def __len__(self) -> int:
        return self.g.size


@dataclass(frozen=True)
class ScanSummary:
    """Smallest violating k on a scan grid (None if no cell had g < 0)."""

    min_k: Optional[int]
    argmin_r: Optional[float]
    g_at_min: Optional[float]
    cells: int
    violations: int


def k_grid(kmin: float, kmax: float, points: int) -> list[int]:
    """Log-spaced integer grid (deduplicated, ascending)."""
    if not (2 <= kmin <= kmax <= 2**53) or points < 1:
        raise DomainError("need 2 <= kmin <= kmax <= 2**53 and points >= 1")
    if points == 1 or kmin == kmax:
        return [int(round(kmin))]
    ks = np.unique(np.rint(np.geomspace(kmin, kmax, points)).astype(int))
    return [int(k) for k in ks if k >= 2]


def r_grid(rmin: float, rmax: float, rstep: float) -> list[float]:
    """Arithmetic grid on [rmin, rmax) (right endpoint excluded)."""
    if not (1.0 <= rmin < rmax <= 2.0 and rstep > 0):
        raise DomainError("need 1 <= rmin < rmax <= 2 and rstep > 0")
    count = int(math.ceil((rmax - rmin) / rstep - 1e-12))
    return [rmin + j * rstep for j in range(count) if rmin + j * rstep < rmax]


def scan_violation(ks: Iterable[int], rs: Iterable[float]) -> tuple[ScanGrid, ScanSummary]:
    """The gap on a (k, r) grid, the smallest violating k and its most
    negative g (the first such r on ties).  ks are integers >= 2 and rs lie
    in [1, 2), both strictly increasing; cells where f is undefined (t = 1/k,
    e.g. at r = 1) hold g = NaN and are excluded from the search."""
    ks, rs = np.asarray(list(ks)), np.asarray(list(rs), dtype=float)
    if ks.size == 0 or ks.dtype.kind not in "iu" or ks[0] < 2 or not np.all(np.diff(ks) > 0):
        raise DomainError("scan ks must be nonempty integers >= 2, strictly increasing")
    if rs.size == 0 or not (1.0 <= rs[0] and rs[-1] < 2.0 and np.all(np.diff(rs) > 0)):
        raise DomainError("scan rs must be nonempty, strictly increasing and in [1, 2)")
    t = _t_grid(ks, rs)
    g = _gap(np.asarray(ks, dtype=float)[:, None], t)[0]
    violated = g < 0.0
    rows = np.flatnonzero(violated.any(axis=1))
    best = (None, None, None)
    if rows.size:
        i = rows[0]
        j = int(np.argmin(np.where(violated[i], g[i], 0.0)))
        best = (int(ks[i]), float(rs[j]), float(g[i, j]))
    return ScanGrid(ks, rs, t, g), ScanSummary(*best, int(g.size), int(violated.sum()))


def scan_csv_text(grid: ScanGrid) -> str:
    """Contour-ready CSV with header k,r,t,g (LF line endings)."""
    r_text = [f",{r!r}" for r in grid.rs.tolist()]
    lines = ["k,r,t,g"]
    for k, t_row, g_row in zip(grid.ks.tolist(), grid.t.tolist(), grid.g.tolist()):
        k_text = str(k)
        lines.extend(f"{k_text}{r},{t!r},{g!r}" for r, t, g in zip(r_text, t_row, g_row))
    return "\n".join(lines) + "\n"


def contour_segments(grid: ScanGrid
                     ) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Marching-squares line segments of the g = 0 contour in (log10 k, r).

    Cells touching NaN values are skipped; ambiguous saddle cells are split
    by the mean-value rule.
    """
    g = grid.g
    if g.shape[0] < 2 or g.shape[1] < 2:
        return []
    # the corners of every cell, counter-clockwise from (i, j)
    zs = np.stack([g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]])
    above = (zs > 0.0).sum(axis=0)
    crossed = ~np.isnan(zs).any(axis=0) & (above > 0) & (above < 4)
    xs, rs = np.log10(grid.ks).tolist(), grid.rs.tolist()
    segments = []
    for i, j in zip(*np.nonzero(crossed)):
        z = zs[:, i, j].tolist()
        corners = [(xs[i], rs[j]), (xs[i + 1], rs[j]),
                   (xs[i + 1], rs[j + 1]), (xs[i], rs[j + 1])]
        crossings = []
        for e in range(4):
            v0, v1 = z[e], z[(e + 1) % 4]
            if (v0 > 0.0) != (v1 > 0.0):
                frac = -v0 / (v1 - v0)
                p0, p1 = corners[e], corners[(e + 1) % 4]
                crossings.append((p0[0] + frac * (p1[0] - p0[0]),
                                  p0[1] + frac * (p1[1] - p0[1])))
        # a saddle: the two corners on the centre's side of zero are joined
        # through it, so the segments cut off the other two: crossings on
        # edges (0, 1) + (2, 3) when that is corner 0's side, else (3, 0) + (1, 2)
        if len(crossings) == 4 and (sum(z) / 4.0 > 0.0) != (z[0] > 0.0):
            crossings = [crossings[0], crossings[3], crossings[1], crossings[2]]
        segments.extend(zip(crossings[::2], crossings[1::2]))
    return segments


def contour_svg(grid: ScanGrid) -> str:
    """Zero contour of the scan as a plain SVG drawing of line segments."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    segments = contour_segments(grid)
    x_lo, y_lo = math.log10(grid.ks[0]), float(grid.rs[0])
    x_span = (math.log10(grid.ks[-1]) - x_lo) or 1.0
    y_span = (float(grid.rs[-1]) - y_lo) or 1.0

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
