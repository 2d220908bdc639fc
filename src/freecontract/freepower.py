"""Fractional free additive convolution powers of atomic measures.

For a probability measure mu with remainder measure rho (atoms b_j, weights
c_j, see :mod:`freecontract.measures`) and a power T > 1, everything is
driven by the rational function

    H(z)  = z + (T-1)*(mean + sum_j c_j/(z - b_j)),
    H'(z) = 1 - (T-1)*sum_j c_j/(z - b_j)^2.

The boundary-height function f solves

    sum_j c_j / ((b_j - x)^2 + f(x)^2) = 1/(T-1)

wherever the open set B = {x : (T-1)*sum_j c_j/(b_j - x)^2 > 1} allows a
positive solution, and f = 0 elsewhere.  H is real and strictly increasing
along the curve x + i f(x); each maximal interval of B maps to one
absolutely continuous support component of the power, whose density at
x = H(u + i f(u)) is -Im G(u + i f(u)) / pi with G the Cauchy transform of
mu.  Point masses survive at T*x exactly when mu({x}) > 1 - 1/T, with mass
T*mu({x}) - (T-1).

All real roots of the geometry and of subordination come from guaranteed
sign-change brackets, solved together by one vectorized safeguarded Newton
iteration on functions with their bracketing poles cleared; the height
y = f^2 solves its secular equation by monotone Newton steps.  Everything
is computed in coordinates centred at the mean of mu and shifted back at
the public boundary, so an offset spectrum keeps its digits.

The support geometry is four arrays, the edges u_lo, u_hi of the k maximal
intervals of B in order and the edges x_lo, x_hi of their images, and every
reader indexes them: a point finds its component by one search against the
image edges, and subordination solves all points in one bracketed Newton
pass with per-point brackets.  All components are integrated in one pass,
by a midpoint rule in the curve parameter with the edge-taming
substitution u = u_lo + (u_hi - u_lo)*sin(theta)^2, under which the
square-root edge behavior of the density becomes smooth: the cumulative
sums form one (k, nodes + 2) CDF table whose last column is the
components' masses.  Components whose images touch merge into one support
interval, with their masses summed.  The table is built only when first
read.

A norm reads only the two outer ends of the support, and `support_hull`
finds them from mu alone, with no rho and no component geometry.  With
x_j the outermost atom of mu on one side and w_j its weight, that end is
the atom T*x_j when w_j > 1 - 1/T; otherwise it is h(u) at the root
u beyond x_j of psi(u) = F_mu'(u) - 1 = 1/(T-1).  In centred coordinates,
with the pole-cleared ratios b_i = (u - x_j)/(u - x_i) in [0, 1] (b_j = 1)
and B = sum_i w_i b_i,

    psi(u) = sum_i w_i (b_i - B)^2 / B^2,
    h(u)   = u + (T-1) * sum_i w_i (u - x_i) (b_i - B)^2 / B^2,

every term nonnegative and finite at u = x_j; both ends are solved in one
bracketed Newton pass of O(m) per probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .measures import NEWTON_TOL, AtomicMeasure, cauchy_pair, moments, nevanlinna_rho
from .rootfind import bisect, blockwise, damped_newton

_MASS_TOL = 1e-6          # atomic + a.c. mass must reproduce 1 this well
_COMPONENT_MERGE_TOL = 1e-10
_CDF_GRID = 8192          # midpoint nodes per component table
# Newton steps per boundary height.  While a nearby light rho atom dominates
# S, each step about doubles y, for up to ~53 steps when the other atoms
# alone sit at the threshold s to within rounding; then it is quadratic.
_HEIGHT_STEPS = 100


class _PowerKernel:
    """Subordination data for one (mu, T > 1) pair, built in cached layers.

    Construction computes only the moments and rho; the component geometry
    (`curves`, four edge arrays, and `starts`, where each merged support
    component begins) is located on first use, and the one CDF table of all
    components (`cdf_table`), whose last column is the a.c. masses, on first
    read.

    Everything is held in coordinates centred at the mean tau of mu: the
    atoms `xs` of mu, the rho atoms `beta`, the curve points w, and on the
    power's side x' = x - `shift` with shift = T*tau, since
    H(w + tau) = h(w) + T*tau for the centred map h below.  `h_pair` and
    `invert_h` take and give absolute points and `subordinate` takes
    absolute x; other callers shift at the public boundary.
    """

    def __init__(self, mu: AtomicMeasure, T: float):
        if T <= 1.0:
            raise DomainError("subordination is defined for powers T > 1")
        self.T = float(T)
        self.tau, self.var = moments(mu)
        self.shift = self.T * self.tau
        self.xs, self.weights = mu.positions - self.tau, mu.weights
        rho = nevanlinna_rho(AtomicMeasure(self.xs, self.weights, mu.total_mass))
        self.beta = rho.positions
        self.c = rho.weights
        self.s = 1.0 / (self.T - 1.0)

    # -- pointwise building blocks -------------------------------------

    def psi(self, x: np.ndarray) -> np.ndarray:
        """sum_j c_j/(b_j - x)^2 for each x."""
        return (self.c / (self.beta - x[:, None]) ** 2).sum(axis=1)

    def h(self, z: np.ndarray) -> np.ndarray:
        """Centred map h(w) = w + (T-1)*sum_j c_j/(w - b_j)."""
        z = np.asarray(z, dtype=complex)
        return z + (self.T - 1.0) * np.sum(
            self.c[:, None] / (z[None, :] - self.beta[:, None]), axis=0)

    def h_prime(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return 1.0 - (self.T - 1.0) * np.sum(
            self.c[:, None] / (z[None, :] - self.beta[:, None]) ** 2, axis=0
        )

    def h_pair(self, w: complex) -> tuple[complex, complex]:
        """Scalar (H(w), H'(w)) at an absolute point w."""
        z = np.array([complex(w) - self.tau])
        return complex(self.h(z)[0]) + self.shift, complex(self.h_prime(z)[0])

    def invert_h(self, z: complex, tol: float) -> complex:
        """Absolute w in the upper half plane with H(w) = z, by damped Newton
        from the large-|z| asymptote w = z - (T-1)*mean."""
        return damped_newton(self.h_pair, z, z - (self.T - 1.0) * self.tau, tol,
                             "inverting H")

    def g_mu(self, z: np.ndarray) -> np.ndarray:
        """Cauchy transform of mu at centred points."""
        z = np.asarray(z, dtype=complex)
        return np.sum(self.weights[:, None] / (z[None, :] - self.xs[:, None]), axis=0)

    # -- boundary height -------------------------------------------------

    def f_height(self, u: np.ndarray) -> np.ndarray:
        """Vectorized boundary height; exactly 0 outside B.

        y = f^2 solves S(y) = sum_j c_j/(d_j^2 + y) = s with d_j = b_j - u.
        1/S is increasing and concave in y (Cauchy-Schwarz), so Newton on
        1/S(y) - 1/s started below the root rises monotonically to it; the
        start max(0, max_j(c_j/s - d_j^2)) is below the root (each term of S
        is at most s there) and finite on a rho atom.  A point stops once a
        step no longer raises its y; outside B that is the first step, from
        y = 0.  ConvergenceError after _HEIGHT_STEPS steps.
        """
        u = np.asarray(u, dtype=float)
        # (atoms x points): many points over few atoms sum fastest by rows
        d2 = self.beta[:, None] - u
        d2 *= d2
        c, s = self.c[:, None], self.s
        y = (c / s - d2).max(axis=0, initial=0.0)
        idx, yy = np.arange(u.size), y
        # with no rho atoms (one-atom mu) the step is 0/0 = NaN, which stops
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_HEIGHT_STEPS):
                q = np.reciprocal(d2 + yy)
                r = c * q
                big_s = r.sum(axis=0)
                r *= q
                nxt = yy + big_s * (big_s - s) / (s * r.sum(axis=0))
                rising = nxt > yy
                if not rising.all():
                    y[idx] = yy
                    idx, d2, nxt = idx[rising], d2[:, rising], nxt[rising]
                yy = nxt
                if not idx.size:
                    return np.sqrt(y)
        raise ConvergenceError(f"boundary height: Newton still rising after "
                               f"{_HEIGHT_STEPS} steps at {idx.size} points")

    def curve_point(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u + 1j * self.f_height(u)

    # -- component geometry ----------------------------------------------

    @cached_property
    def curves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(u_lo, u_hi, x_lo, x_hi): the k maximal intervals of B, in order,
        and their image support intervals, centred."""
        if self.var <= 0.0:
            raise DomainError("subordination machinery needs a measure with positive variance")
        beta, c, s, m = self.beta, self.c, self.s, self.beta.size
        # B lies within reach of the rho atoms: f <= sqrt(var*(T-1))
        reach = math.sqrt(self.var * (self.T - 1.0)) + 1.0
        lo, hi = beta[:-1], beta[1:]

        # psi is strictly convex between consecutive poles: its minimum
        # decides whether the component splits in that gap.  On the gap
        # (L, R), psi'/2 = P - N with P = c_R/(R - x)^3 + (atoms right of R)
        # and N = c_L/(x - L)^3 + (atoms left of L), both positive; Newton
        # runs on N^(-1/3) - P^(-1/3), which increases through the minimum,
        # is finite at both poles and is linear when no other atom counts.
        def critical(x: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            left, right = x - beta[i], beta[i + 1] - x
            inv = 1.0 / (beta - x[:, None])
            terms = inv * inv
            terms *= inv
            terms *= c
            rows = np.arange(x.size)
            terms[rows, i] = terms[rows, i + 1] = 0.0
            above = np.maximum(terms, 0.0)
            below = above - terms
            u = c[i] + below.sum(axis=1) * left**3
            v = c[i + 1] + above.sum(axis=1) * right**3
            f = left / np.cbrt(u) - right / np.cbrt(v)
            fp = ((c[i] - (below * inv).sum(axis=1) * left**4) / (u * np.cbrt(u))
                  + (c[i + 1] + (above * inv).sum(axis=1) * right**4) / (v * np.cbrt(v)))
            return f, fp

        # start at the minimum of the two-pole model c_L/(x-L)^2 + c_R/(R-x)^2
        ratio = np.cbrt(c[:-1] / c[1:])
        xstar = bisect(critical, lo, hi, m, lo + (hi - lo) * (ratio / (1.0 + ratio)))
        split = blockwise(self.psi, m, xstar) < s
        # psi rises through s at the k left edges (left of all atoms and at
        # the right end of every split gap) and falls through s at the k
        # right edges.  Each bracket ends at one pole P, at distance d from
        # x, where psi = c_P/d^2 + p; Newton runs on
        # +-(s^(-1/2) - psi^(-1/2)) = +-(s^(-1/2) - d/sqrt(c_P + p*d^2)),
        # which increases through the edge, is finite at P and is linear
        # when no other atom counts.
        k = 1 + np.count_nonzero(split)
        gaps = np.flatnonzero(split)
        pole = np.r_[0, gaps + 1, gaps, m - 1]
        sign = np.where(np.arange(2 * k) < k, 1.0, -1.0)
        s_root = 1.0 / math.sqrt(s)

        def edge(x: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            p, sg = pole[i], sign[i]
            dist = sg * (beta[p] - x)
            inv = 1.0 / (beta - x[:, None])
            terms = c * inv * inv
            terms[np.arange(x.size), p] = 0.0
            q = c[p] + terms.sum(axis=1) * dist * dist
            return (sg * (s_root - dist / np.sqrt(q)),
                    (c[p] + sg * (terms * inv).sum(axis=1) * dist**3) / (q * np.sqrt(q)))

        # start where the pole alone gives psi = s: psi >= c_P/d^2 puts it
        # between P and the edge
        edges = bisect(edge,
                       np.r_[beta[0] - reach, xstar[split], lo[split], beta[-1]],
                       np.r_[beta[0], hi[split], xstar[split], beta[-1] + reach], m,
                       beta[pole] - sign * np.sqrt(c[pole] / s))
        u_lo, u_hi = edges[:k], edges[k:]
        if np.any(np.searchsorted(beta, u_hi) <= np.searchsorted(beta, u_lo, "right")):
            raise ConvergenceError("a located component contains no rho atom")
        # h at the edges, each summed over its own row: bit for bit what h
        # gives for that edge alone
        z = edges + 0j
        x = (z + (self.T - 1.0) * (c / (z[:, None] - beta)).sum(axis=1)).real
        return u_lo, u_hi, x[:k], x[k:]

    @cached_property
    def starts(self) -> np.ndarray:
        """Index of the first curve of each support component: a curve joins
        the previous component when its image starts within 1e-10 of where
        that one ends."""
        _, _, x_lo, x_hi = self.curves
        return np.flatnonzero(np.r_[True, x_lo[1:] - x_hi[:-1] > _COMPONENT_MERGE_TOL])

    # -- quadrature --------------------------------------------------------

    @cached_property
    def cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, cumulative a.c. mass), each of shape (k, _CDF_GRID + 2): row i
        tabulates curve i's component, and the last column of the second
        array holds the components' masses.

        One midpoint rule in theta covers every curve, at
        u = u_lo + (u_hi - u_lo)*sin(theta)^2.  The nodes
        theta_i = (i + 1/2)*step never sit on an edge, where mu may have an
        atom; each solves its curve point once for both x = Re h(w) and the
        integrand, the density times dx/dtheta, with dx/du = |h'|^2/Re h'
        (0 at the edges, where h' -> 0), and is credited with half of its
        own cell.  The edges (x_lo, 0) and (x_hi, mass) bracket each row.
        """
        u_lo, u_hi, x_lo, x_hi = self.curves
        step = 0.5 * math.pi / _CDF_GRID
        theta = (np.arange(_CDF_GRID) + 0.5) * step
        sin_t = np.sin(theta)
        width = (u_hi - u_lo)[:, None]
        u = u_lo[:, None] + width * sin_t * sin_t
        du = width * np.sin(2.0 * theta)

        def nodes(u: np.ndarray, du: np.ndarray) -> np.ndarray:
            omega = self.curve_point(u)
            dens = -self.g_mu(omega).imag / math.pi
            hp = self.h_prime(omega)
            re_hp = hp.real
            safe = re_hp > 0.0
            xprime = np.where(safe, np.abs(hp) ** 2 / np.where(safe, re_hp, 1.0), 0.0)
            return np.column_stack([self.h(omega).real, dens * xprime * du])

        table = blockwise(nodes, self.beta.size, u.ravel(), du.ravel())
        cell = table[:, 1].reshape(u.shape) * step
        cum = np.cumsum(cell, axis=1)
        return (np.column_stack([x_lo, table[:, 0].reshape(u.shape), x_hi]),
                np.column_stack([np.zeros(u_lo.size), cum - 0.5 * cell, cum[:, -1]]))

    # -- subordination -----------------------------------------------------

    def subordinate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(omega, inside): the mask of the absolute x strictly inside a
        support interval, compared where the public edges x_lo + shift are,
        and their centred subordination points.

        Each x belongs to the first curve whose image ends above it; u on
        that curve solves x = Re h(u + i f(u)) by safeguarded Newton, since
        Re h increases along the curve with dx/du = |h'|^2/Re h'.
        """
        u_lo, u_hi, x_lo, x_hi = self.curves
        comp = np.minimum(np.searchsorted(x_hi + self.shift, x, "right"), u_lo.size - 1)
        inside = (x > x_lo[comp] + self.shift) & (x < x_hi[comp] + self.shift)
        target, comp = x[inside] - self.shift, comp[inside]

        def probe(u: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            omega = self.curve_point(u)
            hp = self.h_prime(omega)
            return self.h(omega).real - target[idx], np.abs(hp) ** 2 / hp.real

        u = bisect(probe, u_lo[comp], u_hi[comp], self.beta.size)
        return self.curve_point(u), inside


@dataclass(frozen=True)
class FreePowerResult:
    """Support decomposition of a fractional convolution power, a view over
    its subordination kernel.

    `support_components` are the closed a.c. support intervals (adjacent
    intervals merged when their endpoints coincide within 1e-10), `atoms`
    the surviving point masses, `bt_components` the open intervals where
    the boundary height is positive, and `boundary_roots` the real critical
    points of H (the endpoints of those intervals).  `x3`/`x4` are the
    rightmost support edge and rightmost critical point (None when there
    is no a.c. part).  The CDF table, whose row ends are the curves' a.c.
    masses (summed per component in `ac_masses`), is integrated on first
    read.
    """

    T: float
    support_components: tuple[tuple[float, float], ...]
    atoms: tuple[tuple[float, float], ...]
    bt_components: tuple[tuple[float, float], ...]
    boundary_roots: tuple[float, ...]
    x3: Optional[float]
    x4: Optional[float]
    _kernel: Optional[_PowerKernel] = field(default=None, repr=False, compare=False)

    @cached_property
    def ac_masses(self) -> tuple[float, ...]:
        """Absolutely continuous mass of each support component; raises
        ConvergenceError unless atomic plus a.c. mass is 1 within 1e-6."""
        kernel = self._kernel
        masses = () if kernel is None else tuple(
            np.add.reduceat(kernel.cdf_table[1][:, -1], kernel.starts).tolist())
        ac, atomic = sum(masses), self.atomic_mass
        if not abs(ac + atomic - 1.0) <= _MASS_TOL:   # a NaN mass fails too
            raise ConvergenceError(f"mass conservation violated: a.c. {ac:.9f} + "
                                   f"atomic {atomic:.9f} = {ac + atomic:.9f}")
        return masses

    @property
    def ac_mass(self) -> float:
        return float(sum(self.ac_masses))

    @property
    def atomic_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def density(self, x) -> np.ndarray | float:
        """Absolutely continuous density; 0 outside the support interior."""
        scalar = np.isscalar(x)
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xq)
        kernel = self._kernel
        if kernel is not None:
            omega, inside = kernel.subordinate(xq)
            out[inside] = np.maximum(-kernel.g_mu(omega).imag / math.pi, 0.0)
        return float(out[0]) if scalar else out

    def subordination(self, x) -> np.ndarray | complex:
        """Subordination points for x inside the a.c. support (vectorized)."""
        kernel = self._kernel
        if kernel is None:
            raise DomainError("no a.c. support: subordination undefined")
        scalar = np.isscalar(x)
        omega, inside = kernel.subordinate(np.atleast_1d(np.asarray(x, dtype=float)))
        if not np.all(inside):
            raise DomainError("x must lie strictly inside an a.c. support component")
        out = omega + kernel.tau
        return complex(out[0]) if scalar else out

    def cdf(self, x) -> np.ndarray | float:
        """Distribution function (a.c. integral plus atom steps)."""
        scalar = np.isscalar(x)
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xq)
        if self.ac_masses:   # the first read integrates and checks the masses
            for xs, cum in zip(*self._kernel.cdf_table):
                out += np.interp(xq - self._kernel.shift, xs, cum, left=0.0,
                                 right=cum[-1])
        if self.atoms:
            pos, mass = np.array(self.atoms).T
            out += np.r_[0.0, np.cumsum(mass)][np.searchsorted(pos, xq, side="right")]
        return float(out[0]) if scalar else out

    def to_json(self, density_grid: int = 0) -> dict:
        obj = {
            "T": self.T,
            "support_components": [[a, b] for a, b in self.support_components],
            "ac_masses": list(self.ac_masses),
            "atoms": [{"x": p, "mass": m} for p, m in self.atoms],
            "bt_components": [[a, b] for a, b in self.bt_components],
            "boundary_roots": list(self.boundary_roots),
            "x3": self.x3,
            "x4": self.x4,
        }
        xs = p = np.empty(0)
        if density_grid and self.support_components:
            xs = np.linspace(self.support_components[0][0], self.x3, density_grid)
            p = self.density(xs)
        obj["density_table"] = {"x": xs.tolist(), "p": p.tolist()}
        return obj


# ---------------------------------------------------------------------------
# public operations


def h_transform(mu: AtomicMeasure, T: float, z: complex) -> tuple[complex, complex]:
    """H(z) and H'(z) for the subordination system of the T-th power."""
    kernel = _PowerKernel(mu, T)
    z = complex(z)
    if z.imag == 0.0 and kernel.beta.size and np.min(
            np.abs(kernel.beta - (z.real - kernel.tau))) < 1e-12 * max(1.0, abs(z.real)):
        raise DomainError("H has a pole at this real point")
    return kernel.h_pair(z)


def b_set(mu: AtomicMeasure, T: float) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
    """Maximal open intervals of positive boundary height and the H' roots."""
    bt = _bt_components(_PowerKernel(mu, T))
    return bt, _boundary_roots(bt)


def f_height(mu: AtomicMeasure, T: float, x: float) -> float:
    """Boundary height at x (0 outside the positive-height set)."""
    kernel = _PowerKernel(mu, T)
    return float(kernel.f_height(np.array([float(x) - kernel.tau]))[0])


def support_components(mu: AtomicMeasure, T: float) -> tuple[tuple[float, float], ...]:
    """Closed a.c. support intervals of the T-th power (merged, sorted)."""
    return free_power(mu, T).support_components


def _bt_components(kernel: _PowerKernel) -> tuple[tuple[float, float], ...]:
    u_lo, u_hi, _, _ = kernel.curves
    return tuple(zip((u_lo + kernel.tau).tolist(), (u_hi + kernel.tau).tolist()))


def _boundary_roots(bt: Sequence[tuple[float, float]]) -> tuple[float, ...]:
    return tuple(sorted(e for c in bt for e in c))


def atoms_of_power(mu: AtomicMeasure, T: float) -> tuple[tuple[float, float], ...]:
    """Point masses of the T-th power: (T*x, T*w - (T-1)) where w > 1 - 1/T."""
    if T < 1.0:
        raise DomainError("powers are defined for T >= 1")
    thr = 1.0 - 1.0 / T
    return tuple(
        (T * float(x), T * float(w) - (T - 1.0))
        for x, w in zip(mu.positions, mu.weights)
        if w > thr
    )


def subordination(mu: AtomicMeasure, T: float, x: float) -> complex:
    """Subordination point w with H(w) = x, Im w > 0, for x inside the a.c. support."""
    return free_power(mu, T).subordination(float(x))


def density(mu: AtomicMeasure, T: float, x) -> np.ndarray | float:
    """Density of the a.c. part of the T-th power at x (0 outside)."""
    return free_power(mu, T).density(x)


def _open_upper(z: complex) -> complex:
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("z must lie in the open upper half plane")
    return z


def power_cauchy_pair(mu: AtomicMeasure, T: float, z: complex) -> tuple[complex, complex]:
    """(G, F) transforms of the T-th power at a point of the upper half plane.

    Solves H(w) = z by damped Newton (analytic continuation of the
    subordination map off the boundary curve) and evaluates the transforms
    of mu at w.  Verification utility for the linearization identity; the
    support machinery never requires it.
    """
    kernel = _PowerKernel(mu, T)
    z = _open_upper(z)
    return cauchy_pair(mu, kernel.invert_h(z, 1e-12 * max(1.0, abs(z))))


def power_voiculescu(mu: AtomicMeasure, T: float, z: complex) -> complex:
    """Inverse transform phi of the T-th power at z, computed through
    subordination (never through the linearization identity).

    Solves F_power(w) = z by damped Newton, where F_power(w) = F_mu(omega)
    with H(omega) = w; the derivative chains through omega'(w) = 1/H'(omega).
    Verification utility with the same supported regime as
    :func:`freecontract.measures.voiculescu_transform`.
    """
    kernel = _PowerKernel(mu, T)
    z = _open_upper(z)
    xs, ws = mu.positions, mu.weights

    def f_pair(w: complex) -> tuple[complex, complex]:
        omega = kernel.invert_h(w, 1e-13 * max(1.0, abs(w)))
        dz = omega - xs
        g = complex(np.sum(ws / dz))
        gp = complex(-np.sum(ws / dz**2))
        _, hp = kernel.h_pair(omega)
        return 1.0 / g, (-gp / (g * g)) / hp

    return damped_newton(f_pair, z, z, NEWTON_TOL, "inverting the power's F; "
                         "z is outside the supported regime") - z


def _check_power(mu: AtomicMeasure, T: float) -> None:
    if not mu.is_probability():
        raise DomainError("powers are defined for probability measures")
    if T < 1.0:
        raise DomainError("powers are defined for T >= 1 only")


def free_power(mu: AtomicMeasure, T: float) -> FreePowerResult:
    """Support decomposition of the T-th free convolution power.

    Only the geometry is located here: T = 1 repackages mu and a one-atom
    measure gives the moved point mass, both with no a.c. part.  The a.c.
    masses are integrated when `ac_masses` (or `ac_mass`, `to_json`, `cdf`)
    is first read, which raises ConvergenceError unless the atomic plus a.c.
    mass reproduces 1 within 1e-6.
    """
    _check_power(mu, T)
    kernel = None if T == 1.0 or mu.n_atoms == 1 else _PowerKernel(mu, T)
    comps = bt = ()
    if kernel is not None:
        _, _, x_lo, x_hi = kernel.curves
        first = kernel.starts
        comps = tuple(zip((x_lo[first] + kernel.shift).tolist(),
                          (x_hi[np.r_[first[1:], x_lo.size] - 1] + kernel.shift).tolist()))
        bt = _bt_components(kernel)
    roots = _boundary_roots(bt)
    return FreePowerResult(
        T=float(T),
        support_components=comps,
        atoms=atoms_of_power(mu, T),
        bt_components=bt,
        boundary_roots=roots,
        x3=comps[-1][1] if comps else None,
        x4=roots[-1] if roots else None,
        _kernel=kernel,
    )


def support_hull(mu: AtomicMeasure, T: float) -> tuple[float, float]:
    """(lo, hi): the smallest interval holding the support of the T-th
    power, atoms included, from mu alone (formulas in the module docstring).

    An end whose outer atom has w_j > 1 - 1/T (the `atoms_of_power` test)
    is the atom T*x_j: h(x_j) = T*x_j and h increases outside B, so the
    a.c. support ends inside it.  Otherwise each deviation d_i = b_i - B is
    formed from the smaller pair, b_i - B or A - a_i with a_i = 1 - b_i =
    (x_j - x_i)/(u - x_i) and A = 1 - B, so that no digits cancel when
    every b_i is near 1 (u far out) or near 0 (u next to x_j).
    psi = (1 - w_j)/w_j at x_j and decreases to 0, staying below
    var/(u - x_j)^2 (rho's atoms lie below x_j and weigh var in all), so
    the root lies within sqrt(var*(T-1)) of x_j.  Newton runs on
    B/sqrt(V) - sqrt(T-1) with V = B^2*psi, which increases through the
    root and is linear far from the atoms; the left end is the right end
    of the mirrored measure, and both are solved in one pass.
    """
    _check_power(mu, T)
    T = float(T)
    pos, w = mu.positions, mu.weights
    lo, hi = T * float(pos[0]), T * float(pos[-1])
    thr = 1.0 - 1.0 / T
    light = np.array([w[-1] <= thr, w[0] <= thr]) & (mu.n_atoms > 1)
    if not light.any():
        return lo, hi
    tau, var = moments(mu)
    # row 0 is mu and row 1 its mirror image, each with its outer atom x_j
    # last; the sums run over the other atoms and add x_j's terms apart
    # (a_j = 0, b_j = 1), which keeps them finite at u = x_j
    x = np.stack([pos - tau, (tau - pos)[::-1]])[light]
    wt = np.stack([w, w[::-1]])[light]
    xj, wj, x, wt = x[:, -1], wt[:, -1], x[:, :-1], wt[:, :-1]
    gap = xj[:, None] - x

    def ratios(u: np.ndarray, i: np.ndarray):
        """The weights, 1/(u - x_i), a_i and d_i of the other atoms, A and B."""
        wi, r = wt[i], 1.0 / (u[:, None] - x[i])
        a, b = gap[i] * r, (u - xj[i])[:, None] * r
        big_a, big_b = (wi * a).sum(axis=1), wj[i] + (wi * b).sum(axis=1)
        # d_i = b_i - B = A - a_i, from the smaller pair
        d = np.where(b + big_b[:, None] < 1.0, b - big_b[:, None], big_a[:, None] - a)
        return wi, r, a, d, big_a, big_b

    def probe(u: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        wi, r, a, d, big_a, big_b = ratios(u, i)
        wd, db = wi * d, a * r     # db: d b_i/du
        v = (wd * d).sum(axis=1) + wj[i] * big_a * big_a
        fp = ((wi * db).sum(axis=1) * v - big_b * (wd * db).sum(axis=1)) / (v * np.sqrt(v))
        return big_b / np.sqrt(v) - math.sqrt(T - 1.0), fp

    reach = math.sqrt(var * (T - 1.0))
    # twice the bound, so that rounding in var cannot put the root outside
    u = bisect(probe, xj, xj + 2.0 * reach, mu.n_atoms, np.full(xj.size, reach))
    _, _, _, d, big_a, big_b = ratios(u, np.arange(u.size))
    spread = (wt * (u[:, None] - x) * d * d).sum(axis=1) + wj * (u - xj) * big_a * big_a
    ends = iter((u + (T - 1.0) * spread / (big_b * big_b)).tolist())
    if light[0]:
        hi = T * tau + next(ends)
    if light[1]:
        lo = T * tau - next(ends)
    return lo, hi
