"""Independent 50-digit reference for fractional free convolution powers.

Shares no code with `freecontract`: from the atoms (x_i, w_i) of mu and a
power T > 1 it computes, in mpmath at 50 significant digits,

* rho: the zeros b_j of G(z) = sum_i w_i/(z - x_i), one in each gap, by
  `mp.findroot`, and their weights c_j = -1/G'(b_j);
* the boundary-height set {psi > s} with psi(u) = sum_j c_j/(b_j - u)^2 and
  s = 1/(T - 1): the minimum of psi in each rho gap and the edges psi = s;
* the support edges x = H(u) at those edges, with
  H(z) = z + (T - 1)*(mean + sum_j c_j/(z - b_j));
* the density at x inside the support by subordination: the w in the upper
  half plane with H(w) = x, which lies on the curve u + i f(u) where
  sum_j c_j/((b_j - u)^2 + f^2) = s, and then -Im G(w)/pi, with its slope.

Every real root is first bracketed by bisection (the endpoints, which may be
poles, are never evaluated) and then polished by `mp.findroot` to full
precision from two points inside the final bracket.  Importing the module
skips the importing test module when mpmath is missing.
"""

import pytest

mp = pytest.importorskip("mpmath").mp

DIGITS = 50
BISECTIONS = 50


def _solve(fn, lo, hi):
    """The sign change of fn inside (lo, hi)."""
    left = mp.sign(fn(lo + (hi - lo) * mp.mpf(10) ** -40))
    for _ in range(BISECTIONS):
        mid = (lo + hi) / 2
        if mp.sign(fn(mid)) == left:
            lo = mid
        else:
            hi = mid
    quarter = (hi - lo) / 4
    return mp.findroot(fn, (lo + quarter, hi - quarter))


class ReferencePower:
    def __init__(self, atoms, T):
        mp.dps = DIGITS
        self.x = [mp.mpf(float(a)) for a, _ in atoms]
        total = sum(mp.mpf(float(w)) for _, w in atoms)
        self.w = [mp.mpf(float(w)) / total for _, w in atoms]
        self.T = mp.mpf(float(T))
        self.s = 1 / (self.T - 1)
        self.mean = sum(w * x for w, x in zip(self.w, self.x))
        self.var = sum(w * (x - self.mean) ** 2 for w, x in zip(self.w, self.x))
        self.b = [_solve(self.g, lo, hi) for lo, hi in zip(self.x, self.x[1:])]
        self.c = [1 / sum(w / (b - x) ** 2 for w, x in zip(self.w, self.x)) for b in self.b]
        self.u_edges = self._edges()

    def g(self, z):
        return sum(w / (z - x) for w, x in zip(self.w, self.x))

    def psi(self, u):
        return sum(c / (b - u) ** 2 for c, b in zip(self.c, self.b))

    def psi_prime(self, u):
        return sum(2 * c / (b - u) ** 3 for c, b in zip(self.c, self.b))

    def h(self, z):
        return z + (self.T - 1) * (self.mean + sum(c / (z - b) for c, b in zip(self.c, self.b)))

    def _edges(self):
        """Sorted u with psi(u) = s: one left of all rho atoms, one right of
        them, and two in every gap whose minimum of psi lies below s."""
        reach = 2 * mp.sqrt(self.var * (self.T - 1)) + 1
        level = lambda u: self.psi(u) - self.s
        edges = [_solve(level, self.b[0] - reach, self.b[0])]
        for lo, hi in zip(self.b, self.b[1:]):
            xstar = _solve(self.psi_prime, lo, hi)
            if self.psi(xstar) < self.s:
                edges += [_solve(level, lo, xstar), _solve(level, xstar, hi)]
        edges.append(_solve(level, self.b[-1], self.b[-1] + reach))
        return sorted(edges)

    def support_edges(self):
        """Images H(u) of the edges of {psi > s}, as (lo, hi) pairs."""
        xs = [mp.re(self.h(u)) for u in self.u_edges]
        return list(zip(xs[::2], xs[1::2]))

    def height(self, u):
        """f(u) >= 0: Newton on S(y) = sum_j c_j/((b_j - u)^2 + y) = s in
        y = f^2, from y = 0; S is convex and decreasing, so the iterates rise
        to the root."""
        d2 = [(b - u) ** 2 for b in self.b]
        y = mp.mpf(0)
        for _ in range(200):
            terms = [c / (d + y) for c, d in zip(self.c, d2)]
            excess = sum(terms) - self.s
            if excess <= 0:
                return mp.sqrt(y)
            step = excess / sum(t / (d + y) for t, d in zip(terms, d2))
            if step <= y * mp.mpf(10) ** (2 - DIGITS):
                return mp.sqrt(y + step)
            y += step
        raise ArithmeticError("reference boundary height did not converge")

    def density(self, x, u_lo, u_hi):
        """Density p and its slope dp/dx at x in the component whose curve
        spans (u_lo, u_hi); dw/dx = 1/H'(w)."""
        x = mp.mpf(float(x))
        u = _solve(lambda u: mp.re(self.h(mp.mpc(u, self.height(u)))) - x, u_lo, u_hi)
        w = mp.findroot(lambda w: self.h(w) - x, mp.mpc(u, self.height(u)))
        if not mp.im(w) > 0:
            raise ArithmeticError("reference subordination left the upper half plane")
        g_prime = -sum(v / (w - a) ** 2 for v, a in zip(self.w, self.x))
        h_prime = 1 - (self.T - 1) * sum(c / (w - b) ** 2 for c, b in zip(self.c, self.b))
        return -mp.im(self.g(w)) / mp.pi, -mp.im(g_prime / h_prime) / mp.pi
