"""Fractional free additive convolution powers of atomic measures.

Every quantity of a power is read from one `free_power(mu, T)` result,
which builds rho and the component geometry and checks the masses once.

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

The edges of B come from monotone Newton runs out of the rho atoms, with
no brackets (see `_PowerKernel.curves`), and the height y = f^2 from
monotone Newton steps on its secular equation; the subordination points
come from guaranteed sign-change brackets, solved together by one
vectorized safeguarded Newton iteration on functions with their bracketing
poles cleared.  Everything is computed in coordinates centred at the mean
of mu and shifted back at the public boundary, so an offset spectrum keeps
its digits.  Each point's sum over atoms is one row; blocks hold at most
`BLOCK_ELEMENTS` numbers, so no answer depends on the batch.

The support geometry is four arrays, the edges u_lo, u_hi of the k maximal
intervals of B in order and the edges x_lo, x_hi of their images, and every
reader indexes them: a point finds its component by one search against the
image edges, and subordination solves all points in one bracketed Newton
pass with per-point brackets.  Each interval of B is one support
component, however close its image comes to the next one.

The power's distribution needs no quadrature.  With F = 1/G,
H(omega) = T*omega - (T-1)*F(omega), so G*H' = T*G - (T-1)*F'/F is the
derivative of T*sum_i w_i*log(omega - x_i) - (T-1)*log F(omega), and on
the curve H(omega) = x gives F(omega) = (T*omega - x)/(T-1).  At centred x
strictly inside a component, with omega its subordination point,

    CDF(x)     = 1 + ((T-1)*arg(T*omega - x) - T*sum_i w_i*arg(omega - x_i))/pi,
    density(x) = -Im G(omega)/pi = T*(T-1)*Im(omega) / (pi*|T*omega - x|^2).

At a component's ends omega is real and each arg is 0 or pi, so its a.c.
mass is T*mu((u_lo, u_hi)) + (T-1)*(chi(u_hi) - chi(u_lo)) with
chi(u) = [G(u) < 0]: a sum of weights and a parity count.

A norm reads only the outer ends of the support, and `support_hull`
finds them from mu alone, with no rho and no component geometry.  With
x_j the outermost atom of mu on one side and w_j its weight, that end is
T*x_j when w_j >= 1 - 1/T: the power's atom above the tie, and h(x_j) at
it, where the root below is x_j itself.  Otherwise it is h(u) at the root
u beyond x_j of psi(u) = F_mu'(u) - 1 = 1/(T-1).  In centred coordinates,
with the pole-cleared ratios b_i = (u - x_j)/(u - x_i) in [0, 1] (b_j = 1)
and B = sum_i w_i b_i,

    psi(u) = sum_i w_i (b_i - B)^2 / B^2,
    h(u)   = u + (T-1) * sum_i w_i (u - x_i) (b_i - B)^2 / B^2,

every term nonnegative and finite at u = x_j.  Each end is one scalar
root, solved alone by safeguarded Newton in its bracket at O(m) per
probe, so a norm that reads one end solves only that one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError
from .measures import NEWTON_TOL, AtomicMeasure, _f_pair, moments, nevanlinna_rho
from .rootfind import NEWTON_ULPS, bisect, blockwise, bracketed_newton, damped_newton

_MASS_TOL = 1e-6          # atomic + a.c. mass must reproduce 1 this well
# Newton steps of the two monotone rises, a boundary height and a support
# edge.  While a nearby light rho atom dominates S, each height step about
# doubles y, for up to ~53 steps when the other atoms alone sit at the
# threshold s to within rounding; an edge run next to a near-tangent maximum
# of g halves its distance to that maximum per step.  Both then converge
# quadratically.
_RISE_STEPS = 100


class _PowerKernel:
    """Subordination data for one (mu, T > 1) pair, built in cached layers.

    Construction computes only the moments and rho; the component geometry
    (`curves`, four edge arrays with one row per support component) is
    located on first use, and the a.c. masses (`masses`, one per curve) are
    counted from the atoms when `free_power` builds its result.

    Everything is held in coordinates centred at the mean tau of mu: the
    atoms `xs` of mu, the rho atoms `beta`, the curve points w, and on the
    power's side x' = x - `shift` with shift = T*tau, since
    H(w + tau) = h(w) + T*tau for the centred map h below.  `h_pair` and
    `invert_h` take and give absolute points and `subordinate` takes
    absolute x; other callers shift at the public boundary.  Each point's
    sum over atoms is one row; blocks hold at most `BLOCK_ELEMENTS` numbers.
    """

    def __init__(self, mu: AtomicMeasure, T: float):
        if not 1.0 < T < math.inf:
            raise DomainError("subordination is defined for finite powers T > 1")
        self.T = float(T)
        self.tau, self.var = moments(mu)
        self.shift = self.T * self.tau
        self.xs, self.weights = mu.positions - self.tau, mu.weights
        rho = nevanlinna_rho(AtomicMeasure(self.xs, self.weights))
        self.beta, self.c = rho.positions, rho.weights
        self.s = 1.0 / (self.T - 1.0)

    # -- pointwise building blocks -------------------------------------

    def h_and_prime(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Centred h(w) = w + (T-1)*sum_j c_j/(w - b_j) and h', from one reciprocal."""
        T, beta, c = self.T, self.beta, self.c

        def rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            q = np.reciprocal(z[:, None] - beta)
            t = q * c
            return z + (T - 1.0) * t.sum(axis=1), 1.0 - (T - 1.0) * (q * t).sum(axis=1)

        return tuple(blockwise(rows, beta.size, np.asarray(z, dtype=complex)))

    def h_pair(self, w: complex) -> tuple[complex, complex]:
        """Scalar (H(w), H'(w)) at an absolute point w."""
        h, hp = self.h_and_prime(np.array([complex(w) - self.tau]))
        return complex(h[0]) + self.shift, complex(hp[0])

    def invert_h(self, z: complex, tol: float) -> complex:
        """Absolute w in the upper half plane with H(w) = z, by damped Newton
        from the large-|z| asymptote w = z - (T-1)*mean."""
        return damped_newton(self.h_pair, z, z - (self.T - 1.0) * self.tau, tol,
                             "inverting H")

    # -- boundary height -------------------------------------------------

    def f_height(self, u: np.ndarray) -> np.ndarray:
        """Vectorized boundary height; exactly 0 outside B.

        y = f^2 solves S(y) = sum_j c_j/(d_j^2 + y) = s with d_j = b_j - u.
        1/S is increasing and concave in y (Cauchy-Schwarz), so Newton on
        1/S(y) - 1/s started below the root rises monotonically to it; the
        start max(0, max_j(c_j/s - d_j^2)) is below the root (each term of S
        is at most s there) and finite on a rho atom.  A point stops once a
        step no longer raises its y; outside B that is the first step, from
        y = 0.  ConvergenceError after _RISE_STEPS steps.
        """
        beta, c, s = self.beta, self.c, self.s

        def rise(u: np.ndarray) -> np.ndarray:
            d2 = u[:, None] - beta
            d2 *= d2
            y = (c / s - d2).max(axis=1, initial=0.0)
            idx, yy = np.arange(u.size), y
            # with no rho atoms (one-atom mu) the step is 0/0 = NaN, which stops
            with np.errstate(divide="ignore", invalid="ignore"):
                for _ in range(_RISE_STEPS):
                    q = np.reciprocal(d2 + yy[:, None])
                    r = c * q
                    big_s = r.sum(axis=1)
                    r *= q
                    nxt = yy + big_s * (big_s - s) / (s * r.sum(axis=1))
                    rising = nxt > yy
                    if not rising.all():
                        y[idx] = yy
                        idx, d2, nxt = idx[rising], d2[rising], nxt[rising]
                    yy = nxt
                    if not idx.size:
                        return np.sqrt(y)
            raise ConvergenceError(f"boundary height: Newton still rising after "
                                   f"{_RISE_STEPS} steps at {idx.size} points")

        return blockwise(rise, beta.size, np.asarray(u, dtype=float))

    def curve_point(self, u: np.ndarray) -> np.ndarray:
        return u + 1j * self.f_height(u)

    # -- component geometry ----------------------------------------------

    @cached_property
    def curves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(u_lo, u_hi, x_lo, x_hi): the k maximal intervals of B, in order,
        and their image support intervals, centred.

        B = {g < sqrt(T-1)} with g = psi^(-1/2), which is 0 at each rho atom
        and concave between and beyond them (Cauchy-Schwarz: a_j = 1/(u - b_j),
        (sum c a^3)^2 <= sum c a^2 * sum c a^4).  An edge is therefore the
        first point, going out from a pole P, where g reaches sqrt(T-1), and
        Newton in the distance d from P rises to it monotonically without
        passing it: every iterate is a lower bound on the edge's distance.
        The first step is d = sqrt((T-1)*c_P); later ones probe the
        pole-cleared g = d/sqrt(c_P + p*d^2), p the psi of the other atoms.
        Runs go out from both outer atoms and into each gap from both of its
        poles.  A gap splits exactly when both of its runs converge with
        g' > 0; it does not once a run sees g' <= 0 (g < sqrt(T-1) beyond,
        by concavity) or the two lower bounds fill it.  A run converges when
        its step is at most NEWTON_ULPS ulps of |b_P| + d.
        """
        if self.var <= 0.0:
            raise DomainError("subordination machinery needs a measure with positive variance")
        beta, c, m = self.beta, self.c, self.beta.size
        level = math.sqrt(self.T - 1.0)
        # run i goes out from pole i % m, rightward for i < m: gap j between
        # beta[j] and beta[j + 1] is entered by runs j and m + j + 1
        pole, sign = np.tile(np.arange(m), 2), np.repeat([1.0, -1.0], m)
        width = np.diff(beta)

        def probe(d: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            p, sg = pole[i], sign[i]
            inv = 1.0 / (beta - (beta[p] + sg * d)[:, None])
            terms = c * inv * inv
            terms[np.arange(d.size), p] = 0.0
            q = c[p] + terms.sum(axis=1) * d * d
            slope = (c[p] - sg * (terms * inv).sum(axis=1) * d**3) / (q * np.sqrt(q))
            return d / np.sqrt(q), slope

        d = level * np.sqrt(c[pole])
        running = np.ones(2 * m, dtype=bool)
        split = np.ones(m - 1, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_RISE_STEPS + 1):    # the last pass only classifies
                split &= d[:m - 1] + d[m + 1:] < width
                running &= np.r_[split, True, True, split]
                idx = np.flatnonzero(running)
                if not idx.size:
                    break
                g, gp = blockwise(probe, m, d[idx], idx)
                step = (level - g) / gp
                # g' <= 0 below sqrt(T-1): by concavity g stays below it
                # beyond, and an infinite distance closes the gap
                step[~(gp > 0.0)] = np.inf
                d[idx] += step
                tol = NEWTON_ULPS * np.spacing(np.abs(beta[pole[idx]]) + d[idx])
                running[idx[step <= tol]] = False
            else:
                raise ConvergenceError(f"support edges: Newton still rising after "
                                       f"{_RISE_STEPS} steps on {idx.size} runs")
        gaps = np.flatnonzero(split)
        runs, k = np.r_[m, gaps + m + 1, gaps, m - 1], gaps.size + 1
        edges = beta[pole[runs]] + sign[runs] * d[runs]
        u_lo, u_hi = edges[:k], edges[k:]
        if np.any(np.searchsorted(beta, u_hi) <= np.searchsorted(beta, u_lo, "right")):
            raise ConvergenceError("a located component contains no rho atom")
        x = self.h_and_prime(edges)[0].real
        return u_lo, u_hi, x[:k], x[k:]

    # -- closed forms ------------------------------------------------------

    @cached_property
    def masses(self) -> np.ndarray:
        """A.c. mass of each curve's component (module docstring).  chi(u) is
        the parity of the 2m - 1 atoms of mu and rho above u, since G falls
        from +inf to -inf between two poles, through one rho atom.  An atom
        on u_hi counts as above it, as in mu((u_lo, u_hi)), so an edge that
        rounds onto an atom of mu moves a mass by at most that atom's
        T*w - (T-1), ~0 there.  Each mu((u_lo, u_hi)) is one pairwise sum."""
        u_lo, u_hi, _, _ = self.curves
        n_lo = np.searchsorted(self.xs, u_lo, "right")
        n_hi = np.searchsorted(self.xs, u_hi, "left")
        chi_lo = (n_lo + np.searchsorted(self.beta, u_lo, "right") + 1) % 2
        chi_hi = (n_hi + np.searchsorted(self.beta, u_hi, "left") + 1) % 2
        runs = np.add.reduceat(np.r_[self.weights, 0.0], np.c_[n_lo, n_hi].ravel())[::2]
        T = self.T
        return T * np.where(n_hi > n_lo, runs, 0.0) + (T - 1.0) * (chi_hi - chi_lo)

    def cdf_inside(self, x: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """The CDF at centred x strictly inside a component, from its centred
        subordination points omega = u + i*v: the module's formula regrouped
        as 1 - sum_i w_i*(arg(omega - x_i) + (T-1)*theta_i)/pi, where
        theta_i = arg((omega - x_i)*conj(T*omega - x)) has imaginary part
        v*(T*x_i - x), so that no digits cancel at large T."""
        xs, w, T = self.xs, self.weights, self.T

        def turn(x: np.ndarray, omega: np.ndarray) -> np.ndarray:
            u, v, x = omega.real[:, None], omega.imag[:, None], x[:, None]
            theta = np.arctan2(v * (T * xs - x), (u - xs) * (T * u - x) + T * v * v)
            return (w * (np.arctan2(v, u - xs) + (T - 1.0) * theta)).sum(axis=1)

        return 1.0 - blockwise(turn, xs.size, x, omega) / math.pi

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
            h, hp = self.h_and_prime(self.curve_point(u))
            return h.real - target[idx], np.abs(hp) ** 2 / hp.real

        u = bisect(probe, u_lo[comp], u_hi[comp], self.beta.size)
        return self.curve_point(u), inside


@dataclass(frozen=True)
class FreePowerResult:
    """Support decomposition of a fractional convolution power, a view over
    its subordination kernel: the one way in to every quantity of the power.

    `support_components` are the closed a.c. support intervals, `atoms`
    the surviving point masses, `bt_components` the open intervals where
    the boundary height is positive, and `boundary_roots` the real critical
    points of H (the endpoints of those intervals).  Each curve is one
    component: the i-th support interval is the image of the i-th
    bt_component and carries the i-th a.c. mass.  `x3`/`x4` are the
    rightmost support edge and rightmost critical point (None when there
    is no a.c. part).  `ac_masses` are sums of weights of mu, counted and
    checked by `free_power`; `density` and `cdf` are closed forms at the
    subordination point, which a point inside a component solves for.
    """

    T: float
    support_components: tuple[tuple[float, float], ...]
    atoms: tuple[tuple[float, float], ...]
    bt_components: tuple[tuple[float, float], ...]
    boundary_roots: tuple[float, ...]
    x3: Optional[float]
    x4: Optional[float]
    ac_masses: tuple[float, ...]
    _kernel: Optional[_PowerKernel] = field(default=None, repr=False, compare=False)

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
        out = np.where(np.isnan(xq), np.nan, 0.0)
        kernel = self._kernel
        if kernel is not None:
            omega, inside = kernel.subordinate(xq)
            T, x = kernel.T, xq[inside] - kernel.shift
            out[inside] = T * (T - 1.0) * omega.imag / (math.pi * np.abs(T * omega - x) ** 2)
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
        """Distribution function: in closed form inside a component, else
        the masses of the components and atoms at or below x; NaN at a NaN x."""
        scalar = np.isscalar(x)
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.where(np.isnan(xq), np.nan, 0.0)
        if self.atoms:
            pos, mass = np.array(self.atoms).T
            out += np.r_[0.0, np.cumsum(mass)][np.searchsorted(pos, xq, side="right")]
        if self.ac_masses:
            kernel = self._kernel
            ends = kernel.curves[3] + kernel.shift
            out += np.r_[0.0, np.cumsum(self.ac_masses)][np.searchsorted(ends, xq, "right")]
            omega, inside = kernel.subordinate(xq)
            out[inside] = kernel.cdf_inside(xq[inside] - kernel.shift, omega)
        return float(out[0]) if scalar else out

    def to_json(self, density_grid: int = 0) -> dict:
        if density_grid < 0:
            raise DomainError("density_grid must be >= 0")
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


def power_voiculescu(mu: AtomicMeasure, T: float, z: complex) -> complex:
    """Inverse transform phi of the T-th power at z, computed through
    subordination (never through the linearization identity).

    Solves F_power(w) = z by damped Newton, where F_power(w) = F_mu(omega)
    with H(omega) = w; the derivative chains through omega'(w) = 1/H'(omega).
    Verification utility with the same supported regime as
    :func:`freecontract.measures.voiculescu_transform`.
    """
    kernel = _PowerKernel(mu, T)
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("z must lie in the open upper half plane")

    def f_pair(w: complex) -> tuple[complex, complex]:
        omega = kernel.invert_h(w, 1e-13 * max(1.0, abs(w)))
        f, fp = _f_pair(mu, omega)
        return f, fp / kernel.h_pair(omega)[1]

    return damped_newton(f_pair, z, z, NEWTON_TOL, "inverting the power's F; "
                         "z is outside the supported regime") - z


def _check_power(mu: AtomicMeasure, T: float) -> None:
    if not mu.is_probability():
        raise DomainError("powers are defined for probability measures")
    if not 1.0 <= T < math.inf:
        raise DomainError("powers are defined for finite T >= 1 only")


def free_power(mu: AtomicMeasure, T: float) -> FreePowerResult:
    """Support decomposition of the T-th free convolution power.

    The geometry is located and the a.c. masses are counted here: T = 1
    repackages mu and a one-atom measure gives the moved point mass, both
    with no a.c. part.  An atom x of weight w > 1 - 1/T survives as
    (T*x, T*w - (T-1)); at the tie its mass would be 0.  Raises
    ConvergenceError unless the atomic plus a.c. mass reproduces 1 within
    1e-6, so no result holds a lost mass.
    """
    _check_power(mu, T)
    kernel = None if T == 1.0 or mu.n_atoms == 1 else _PowerKernel(mu, T)
    comps = bt = masses = ()
    if kernel is not None:
        u_lo, u_hi, x_lo, x_hi = kernel.curves
        comps = tuple(zip((x_lo + kernel.shift).tolist(), (x_hi + kernel.shift).tolist()))
        bt = tuple(zip((u_lo + kernel.tau).tolist(), (u_hi + kernel.tau).tolist()))
        masses = tuple(kernel.masses.tolist())
    atoms = tuple((T * float(x), T * float(w) - (T - 1.0))
                  for x, w in zip(mu.positions, mu.weights) if w > 1.0 - 1.0 / T)
    ac, atomic = sum(masses), float(sum(m for _, m in atoms))
    if not abs(ac + atomic - 1.0) <= _MASS_TOL:   # a NaN mass fails too
        raise ConvergenceError(f"mass conservation violated: a.c. {ac:.9f} + "
                               f"atomic {atomic:.9f} = {ac + atomic:.9f}")
    roots = tuple(e for c in bt for e in c)
    return FreePowerResult(
        T=float(T),
        support_components=comps,
        atoms=atoms,
        bt_components=bt,
        boundary_roots=roots,
        x3=comps[-1][1] if comps else None,
        x4=roots[-1] if roots else None,
        ac_masses=masses,
        _kernel=kernel,
    )


def support_hull(mu: AtomicMeasure, T: float) -> tuple[float, float]:
    """(lo, hi): the smallest interval holding the support of the T-th
    power, atoms included, from mu alone: its two ends by `hull_end`."""
    return hull_end(mu, T, -1.0), hull_end(mu, T, 1.0)


def hull_end(mu: AtomicMeasure, T: float, side: float) -> float:
    """The right (side = 1.0) or left (side = -1.0) end of `support_hull`,
    solved alone (formulas in the module docstring).

    An end whose outer atom has w_j > 1 - 1/T is the atom T*x_j that
    `free_power` keeps: h(x_j) = T*x_j and h increases outside B, so the
    a.c. support ends inside it.  At the tie w_j = 1 - 1/T the root is x_j
    itself, since psi(x_j) = (1 - w_j)/w_j = 1/(T-1), and the end is
    T*x_j exactly.  Otherwise each deviation d_i = b_i - B is
    formed from the smaller pair, b_i - B or A - a_i with a_i = 1 - b_i =
    (x_j - x_i)/(u - x_i) and A = 1 - B, so that no digits cancel when
    every b_i is near 1 (u far out) or near 0 (u next to x_j).
    psi = (1 - w_j)/w_j at x_j and decreases to 0, staying below
    var/(u - x_j)^2 (rho's atoms lie below x_j and weigh var in all), so
    the root lies within sqrt(var*(T-1)) of x_j.  Newton runs on
    B/sqrt(V) - sqrt(T-1) with V = B^2*psi, which increases through the
    root and is linear far from the atoms, as one scalar root of
    `bracketed_newton`; the left end is the right end of the mirrored
    measure.  The end is h(u) with the deviations taken relative to B
    (d_i/B and A/B), which stay finite when B^2 underflows next to a
    light atom.  It is solved on `mu.centred` (mu centred and scaled by
    2^-e) and scaled back, so that var*(T-1) cannot overflow nor the
    variance of a tiny spectrum underflow.
    """
    _check_power(mu, T)
    T = float(T)
    w = mu.weights
    j = -1 if side > 0.0 else 0
    if mu.n_atoms == 1 or w[j] >= 1.0 - 1.0 / T:
        return T * float(mu.positions[j])
    tau, e, x, var = mu.centred
    # mirrored for the left end so that the outer atom x_j is last; the
    # sums run over the other atoms and add x_j's terms apart (a_j = 0,
    # b_j = 1), which keeps them finite at u = x_j
    if side < 0.0:
        x, w = -x[::-1], w[::-1]
    xj, wj, x, w = float(x[-1]), float(w[-1]), x[:-1], w[:-1]
    gap = xj - x

    def ratios(u: float):
        """1/(u - x_i), a_i and d_i of the other atoms, A and B."""
        r = 1.0 / (u - x)
        a, b = gap * r, (u - xj) * r
        big_a, big_b = float(w @ a), wj + float(w @ b)
        # d_i = b_i - B = A - a_i, from the smaller pair
        d = np.where(b + big_b < 1.0, b - big_b, big_a - a)
        return r, a, d, big_a, big_b

    def probe(u: float) -> tuple[float, float]:
        r, a, d, big_a, big_b = ratios(u)
        wd, db = w * d, a * r     # db: d b_i/du
        # numpy scalars: a V that underflows to 0 divides to inf or NaN
        v = wd @ d + wj * big_a * big_a
        sv = np.sqrt(v)
        fp = (w @ db * v - big_b * (wd @ db)) / (v * sv)
        return float(big_b / sv) - math.sqrt(T - 1.0), float(fp)

    reach = math.sqrt(var * (T - 1.0))
    # twice the bound, so that rounding in var cannot put the root outside
    u = bracketed_newton(probe, xj, xj + 2.0 * reach, reach)
    _, _, d, big_a, big_b = ratios(u)
    d /= big_b
    ab = big_a / big_b
    spread = float((w * (u - x) * d) @ d) + wj * (u - xj) * ab * ab
    return T * tau + side * (u + (T - 1.0) * spread) * 2.0 ** e
