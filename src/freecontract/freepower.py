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

All real roots come from guaranteed sign-change brackets, solved together
by one vectorized bisection; component masses use adaptive Gauss
panels in the curve parameter with the edge-taming substitution
u = u_lo + (u_hi - u_lo)*sin(theta)^2, under which the square-root edge
behavior of the density becomes smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .measures import AtomicMeasure, cauchy_pair, moments, nevanlinna_rho
from .rootfind import bisect, blockwise, damped_newton

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MASS_TOL = 1e-6          # atomic + a.c. mass must reproduce 1 this well
_COMPONENT_MERGE_TOL = 1e-10
_CDF_GRID = 8193          # trapezoid nodes per component for CDF tables


@dataclass(frozen=True)
class _Curve:
    """One maximal interval of B and its image support interval."""

    u_lo: float
    u_hi: float
    x_lo: float
    x_hi: float
    mass: float


class _PowerKernel:
    """Subordination data for one (mu, T > 1) pair.

    Construction computes only the moments and rho; the component geometry
    (`curves`) is located on first use.
    """

    def __init__(self, mu: AtomicMeasure, T: float):
        if T <= 1.0:
            raise DomainError("subordination is defined for powers T > 1")
        self.mu = mu
        self.T = float(T)
        self.tau, self.var = moments(mu)
        rho = nevanlinna_rho(mu)
        self.beta = rho.positions
        self.c = rho.weights
        self.sigma = math.sqrt(self.var)
        self.s = 1.0 / (self.T - 1.0)
        self.f_cap = self.sigma * math.sqrt(self.T - 1.0)

    # -- pointwise building blocks -------------------------------------

    def psi(self, x: np.ndarray) -> np.ndarray:
        """sum_j c_j/(b_j - x)^2 for each x."""
        return (self.c / (self.beta - x[:, None]) ** 2).sum(axis=1)

    def psi_prime(self, x: np.ndarray) -> np.ndarray:
        """sum_j 2 c_j/(b_j - x)^3 for each x."""
        d = self.beta - x[:, None]
        return (2.0 * self.c / (d * d * d)).sum(axis=1)

    def h(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return z + (self.T - 1.0) * (
            self.tau + np.sum(self.c[:, None] / (z[None, :] - self.beta[:, None]), axis=0)
        )

    def h_prime(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return 1.0 - (self.T - 1.0) * np.sum(
            self.c[:, None] / (z[None, :] - self.beta[:, None]) ** 2, axis=0
        )

    def h_pair(self, w: complex) -> tuple[complex, complex]:
        """Scalar (H(w), H'(w))."""
        z = np.array([complex(w)])
        return complex(self.h(z)[0]), complex(self.h_prime(z)[0])

    def invert_h(self, z: complex, tol: float) -> complex:
        """w in the upper half plane with H(w) = z, by damped Newton from the
        large-|z| asymptote w = z - (T-1)*mean."""
        return damped_newton(self.h_pair, z, z - (self.T - 1.0) * self.tau, tol,
                             "inverting H")

    def g_mu(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return np.sum(
            self.mu.weights[:, None] / (z[None, :] - self.mu.positions[:, None]), axis=0
        )

    # -- boundary height -------------------------------------------------

    def f_height(self, u: np.ndarray) -> np.ndarray:
        """Vectorized boundary height; exactly 0 outside B."""
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):   # u may sit on a rho atom
            inside = self.psi(u) > self.s
        # outside B the bracket [0, 0] is collapsed from the start
        hi = np.where(inside, self.f_cap * (1.0 + 1e-12) + 1e-300, 0.0)
        # (atoms x points): many points over few atoms sum fastest by rows
        d2 = (self.beta[:, None] - u) ** 2
        c = self.c[:, None]

        def above(f: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return (c / (d2.take(idx, axis=1) + f * f)).sum(axis=0) > self.s

        return bisect(above, np.zeros_like(u), hi, self.beta.size)

    def curve_point(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u + 1j * self.f_height(u)

    def x_of_u(self, u: np.ndarray) -> np.ndarray:
        return self.h(self.curve_point(u)).real

    # -- component geometry ----------------------------------------------

    @cached_property
    def curves(self) -> list[_Curve]:
        """Maximal intervals of B with their image intervals and a.c. masses."""
        if self.var <= 0.0:
            raise DomainError("subordination machinery needs a measure with positive variance")
        beta, s, m = self.beta, self.s, self.beta.size
        reach = self.f_cap + 1.0   # B lies within reach of the rho atoms
        lo, hi = beta[:-1], beta[1:]
        # psi is strictly convex between consecutive poles: its minimum
        # decides whether the component splits in that gap
        xstar = bisect(lambda x, _: self.psi_prime(x) <= 0.0, lo, hi, m)
        split = blockwise(self.psi, m, xstar) < s
        # psi rises through s at the k left edges (left of all atoms and at
        # the right end of every split gap) and falls through s at the k
        # right edges: a root lies above x where psi(x) <= s on a rising
        # edge and where psi(x) > s on a falling one
        k = 1 + np.count_nonzero(split)
        rising = np.arange(2 * k) < k
        edges = bisect(lambda x, idx: (self.psi(x) > s) != rising[idx],
                       np.r_[beta[0] - reach, xstar[split], lo[split], beta[-1]],
                       np.r_[beta[0], hi[split], xstar[split], beta[-1] + reach], m)
        u_lo, u_hi = edges[:k], edges[k:]
        curves = []
        for a, b in zip(u_lo.tolist(), u_hi.tolist()):
            if not np.any((beta > a) & (beta < b)):
                raise ConvergenceError("a located component contains no rho atom")
            x_lo = float(self.h(np.array([a + 0j]))[0].real)
            x_hi = float(self.h(np.array([b + 0j]))[0].real)
            curves.append(_Curve(a, b, x_lo, x_hi, self._component_mass(a, b)))
        return curves

    # -- quadrature --------------------------------------------------------

    def _mass_integrand(self, theta: np.ndarray, u_lo: float, u_hi: float) -> np.ndarray:
        """Density times dx/dtheta along the boundary curve.

        dx/du = |H'(w)|^2 / Re H'(w) on the curve; at the component edges
        H' -> 0 and the integrand vanishes.
        """
        width = u_hi - u_lo
        sin_t = np.sin(theta)
        u = u_lo + width * sin_t * sin_t
        du = width * np.sin(2.0 * theta)
        omega = self.curve_point(u)
        dens = -self.g_mu(omega).imag / math.pi
        hp = self.h_prime(omega)
        re_hp = hp.real
        safe = re_hp > 0.0
        xprime = np.where(safe, np.abs(hp) ** 2 / np.where(safe, re_hp, 1.0), 0.0)
        return dens * xprime * du

    def _component_mass(self, u_lo: float, u_hi: float,
                        tol: float = 1e-10, max_level: int = 16) -> float:
        def panel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            mid = 0.5 * (a + b)[:, None]
            half = 0.5 * (b - a)[:, None]
            pts = mid + half * _GAUSS_NODES[None, :]
            vals = self._mass_integrand(pts.ravel(), u_lo, u_hi).reshape(pts.shape)
            return (vals @ _GAUSS_WEIGHTS) * half[:, 0]

        a = np.array([0.0])
        b = np.array([0.5 * math.pi])
        coarse = panel(a, b)
        total = 0.0
        for _ in range(max_level):
            mid = 0.5 * (a + b)
            left = panel(a, mid)
            right = panel(mid, b)
            refined = left + right
            done = np.abs(refined - coarse) <= tol / max(len(a), 1)
            total += float(np.sum(refined[done]))
            keep = ~done
            if not np.any(keep):
                return total
            a = np.concatenate([a[keep], mid[keep]])
            b = np.concatenate([mid[keep], b[keep]])
            coarse = np.concatenate([left[keep], right[keep]])
        return total + float(np.sum(coarse))

    def cdf_table(self, curve: _Curve) -> tuple[np.ndarray, np.ndarray]:
        """(x grid, cumulative a.c. mass) along one component."""
        theta = np.linspace(0.0, 0.5 * math.pi, _CDF_GRID)
        vals = self._mass_integrand(theta[1:-1], curve.u_lo, curve.u_hi)
        vals = np.concatenate([[0.0], vals, [0.0]])   # integrand vanishes at edges
        width = curve.u_hi - curve.u_lo
        u = curve.u_lo + width * np.sin(theta) ** 2
        xs = self.x_of_u(u)
        step = theta[1] - theta[0]
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * step)])
        return xs, cum

    # -- subordination -----------------------------------------------------

    def solve_u(self, x: np.ndarray, curve: _Curve) -> np.ndarray:
        """Invert x = H(u + i f(u)) on one component by monotone bisection."""
        x = np.asarray(x, dtype=float)
        return bisect(lambda u, idx: self.x_of_u(u) < x[idx],
                      np.full_like(x, curve.u_lo), np.full_like(x, curve.u_hi),
                      self.beta.size)

    def subordinate(self, x: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(omega, inside) per component: the mask of the x strictly inside it
        (and inside no earlier one) and their subordination points."""
        seen = np.zeros(x.shape, dtype=bool)
        for curve in self.curves:
            inside = (x > curve.x_lo) & (x < curve.x_hi) & ~seen
            if not np.any(inside):
                continue
            seen |= inside
            yield self.curve_point(self.solve_u(x[inside], curve)), inside


@dataclass(frozen=True)
class FreePowerResult:
    """Support decomposition of a fractional convolution power.

    `support_components` are the closed a.c. support intervals (adjacent
    intervals merged when their endpoints coincide within 1e-10),
    `ac_masses` the matching absolutely continuous masses, `atoms` the
    surviving point masses, `bt_components` the open intervals where the
    boundary height is positive, and `boundary_roots` the real critical
    points of H (the endpoints of those intervals).  `x3`/`x4` are the
    rightmost support edge and rightmost critical point (None when there
    is no a.c. part).
    """

    T: float
    support_components: tuple[tuple[float, float], ...]
    ac_masses: tuple[float, ...]
    atoms: tuple[tuple[float, float], ...]
    bt_components: tuple[tuple[float, float], ...]
    boundary_roots: tuple[float, ...]
    x3: Optional[float]
    x4: Optional[float]
    _kernel: Optional[_PowerKernel] = field(default=None, repr=False, compare=False)

    @property
    def ac_mass(self) -> float:
        return float(sum(self.ac_masses))

    @property
    def atomic_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def extent(self) -> float:
        """max{|v| : v in supp} over support edges and atom positions."""
        vals = [abs(e) for comp in self.support_components for e in comp]
        vals += [abs(p) for p, _ in self.atoms]
        if not vals:
            raise ConvergenceError("empty support")
        return max(vals)

    def density(self, x) -> np.ndarray | float:
        """Absolutely continuous density; 0 outside the support interior."""
        scalar = np.isscalar(x)
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xq)
        if self._kernel is not None:
            for omega, inside in self._kernel.subordinate(xq):
                out[inside] = np.maximum(-self._kernel.g_mu(omega).imag / math.pi, 0.0)
        return float(out[0]) if scalar else out

    def subordination(self, x) -> np.ndarray | complex:
        """Subordination points for x inside the a.c. support (vectorized)."""
        if self._kernel is None:
            raise DomainError("no a.c. support: subordination undefined")
        scalar = np.isscalar(x)
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(xq.shape, dtype=complex)
        seen = np.zeros(xq.shape, dtype=bool)
        for omega, inside in self._kernel.subordinate(xq):
            out[inside] = omega
            seen |= inside
        if not np.all(seen):
            raise DomainError("x must lie strictly inside an a.c. support component")
        return complex(out[0]) if scalar else out

    def cdf(self, x) -> np.ndarray | float:
        """Distribution function (a.c. integral plus atom steps)."""
        scalar = np.isscalar(x)
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xq)
        if self._kernel is not None:
            for curve in self._kernel.curves:
                xs, cum = self._kernel.cdf_table(curve)
                out += np.interp(xq, xs, cum, left=0.0, right=cum[-1])
        if self.atoms:
            pos = np.array([p for p, _ in self.atoms])
            mass = np.array([m for _, m in self.atoms])
            idx = np.searchsorted(pos, xq, side="right")
            cum_atoms = np.concatenate([[0.0], np.cumsum(mass)])
            out += cum_atoms[idx]
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
        if density_grid and self.support_components:
            lo = self.support_components[0][0]
            hi = self.support_components[-1][1]
            xs = np.linspace(lo, hi, density_grid)
            obj["density_table"] = {
                "x": [float(v) for v in xs],
                "p": [float(v) for v in np.atleast_1d(self.density(xs))],
            }
        else:
            obj["density_table"] = {"x": [], "p": []}
        return obj


# ---------------------------------------------------------------------------
# public operations


def h_transform(mu: AtomicMeasure, T: float, z: complex) -> tuple[complex, complex]:
    """H(z) and H'(z) for the subordination system of the T-th power."""
    kernel = _PowerKernel(mu, T)
    z = complex(z)
    if z.imag == 0.0 and kernel.beta.size and np.min(
            np.abs(kernel.beta - z.real)) < 1e-12 * max(1.0, abs(z.real)):
        raise DomainError("H has a pole at this real point")
    return kernel.h_pair(z)


def b_set(mu: AtomicMeasure, T: float) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
    """Maximal open intervals of positive boundary height and the H' roots."""
    curves = _PowerKernel(mu, T).curves
    return _bt_components(curves), _boundary_roots(curves)


def f_height(mu: AtomicMeasure, T: float, x: float) -> float:
    """Boundary height at x (0 outside the positive-height set)."""
    return float(_PowerKernel(mu, T).f_height(np.array([float(x)]))[0])


def support_components(mu: AtomicMeasure, T: float) -> tuple[tuple[float, float], ...]:
    """Closed a.c. support intervals of the T-th power (merged, sorted)."""
    return free_power(mu, T, mass_check=False).support_components


def _bt_components(curves: Sequence[_Curve]) -> tuple[tuple[float, float], ...]:
    return tuple((c.u_lo, c.u_hi) for c in curves)


def _boundary_roots(curves: Sequence[_Curve]) -> tuple[float, ...]:
    return tuple(sorted(e for c in curves for e in (c.u_lo, c.u_hi)))


def _merge_components(curves: Sequence[_Curve]) -> tuple[
    tuple[tuple[float, float], ...], tuple[float, ...]
]:
    merged: list[list[float]] = []
    masses: list[float] = []
    for c in curves:
        if merged and c.x_lo - merged[-1][1] <= _COMPONENT_MERGE_TOL:
            merged[-1][1] = c.x_hi
            masses[-1] += c.mass
        else:
            merged.append([c.x_lo, c.x_hi])
            masses.append(c.mass)
    return tuple((a, b) for a, b in merged), tuple(masses)


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
    return free_power(mu, T, mass_check=False).subordination(float(x))


def density(mu: AtomicMeasure, T: float, x) -> np.ndarray | float:
    """Density of the a.c. part of the T-th power at x (0 outside)."""
    return free_power(mu, T, mass_check=False).density(x)


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


def power_voiculescu(mu: AtomicMeasure, T: float, z: complex, tol: float = 1e-12) -> complex:
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

    return damped_newton(f_pair, z, z, tol, "inverting the power's F; "
                         "z is outside the supported regime") - z


def free_power(mu: AtomicMeasure, T: float, mass_check: bool = True) -> FreePowerResult:
    """Full support decomposition of the T-th free convolution power.

    T = 1 repackages mu; a single-atom measure short-circuits to the shifted
    point mass.  With `mass_check` the atomic plus quadrature a.c. mass must
    reproduce 1 within 1e-6, otherwise a ConvergenceError is raised.
    """
    if not mu.is_probability():
        raise DomainError("powers are defined for probability measures")
    if T < 1.0:
        raise DomainError("powers are defined for T >= 1 only")
    if T == 1.0 or mu.n_atoms == 1:
        # no a.c. part: mu itself, or the moved point mass T*x of mass 1
        return FreePowerResult(
            T=float(T),
            support_components=(),
            ac_masses=(),
            atoms=atoms_of_power(mu, T),
            bt_components=(),
            boundary_roots=(),
            x3=None,
            x4=None,
        )
    kernel = _PowerKernel(mu, T)
    comps, masses = _merge_components(kernel.curves)
    roots = _boundary_roots(kernel.curves)
    result = FreePowerResult(
        T=float(T),
        support_components=comps,
        ac_masses=masses,
        atoms=atoms_of_power(mu, T),
        bt_components=_bt_components(kernel.curves),
        boundary_roots=roots,
        x3=comps[-1][1],
        x4=roots[-1],
        _kernel=kernel,
    )
    if mass_check:
        total = result.ac_mass + result.atomic_mass
        if not abs(total - 1.0) <= _MASS_TOL:   # a NaN mass fails too
            raise ConvergenceError(
                f"mass conservation violated: a.c. {result.ac_mass:.9f} + atomic "
                f"{result.atomic_mass:.9f} = {total:.9f}"
            )
    return result
