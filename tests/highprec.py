"""High-precision direct-summation references (tests only).

Theta functions: independent of the package's double-precision engine, the
same defining series summed with mpmath at 60 significant digits over a wide
fixed window.  The permutation sum: one product per permutation of S_N, with
no shared partial products, summed with mpmath.
"""

import itertools

import mpmath as mp


def ref_theta(a, b, u, tau, dps=60, nterms=80):
    """theta[a; b](u, tau) by direct mpmath summation."""
    with mp.workdps(dps):
        a = mp.mpf(a)
        b = mp.mpf(b)
        u = mp.mpc(u)
        tau = mp.mpc(tau)
        ipi = mp.mpc(0, 1) * mp.pi
        total = mp.mpc(0)
        for n in range(-nterms, nterms + 1):
            na = n + a
            total += mp.exp(ipi * (na * na * tau + 2 * na * (u + b)))
        return complex(total)


def ref_sigma(u, tau, **kw):
    return ref_theta(mp.mpf(1) / 2, mp.mpf(1) / 2, u, tau, **kw)


def ref_sigma_char(a1, a2, u, tau, **kw):
    return ref_theta(mp.mpf(1) / 2 + mp.mpf(a1) / 2,
                     mp.mpf(1) / 2 + mp.mpf(a2) / 2, u, tau, **kw)


def ref_theta_level2(j, u, tau, **kw):
    jr = (j - 1) % 2 + 1
    return ref_theta(mp.mpf(1 - jr) / 2, mp.mpf(1) / 2, u, 2 * mp.mpc(tau), **kw)


def ref_permsum(table_a, table_b, table_g, dps=40):
    """(sum, sum of |terms|) over s in S_N of the term
    prod_n A[n, s(n)] prod_{n<k} B[n, s(k)] G[s(n), s(k)], one product per
    permutation, at ``dps`` significant digits.  Their ratio is the factor
    by which cancellation in the sum magnifies a rounding of its terms."""
    n = len(table_a)
    with mp.workdps(dps):
        a, b, g = ([[mp.mpc(v) for v in row] for row in t]
                   for t in (table_a, table_b, table_g))
        total, abs_total = mp.mpc(0), mp.mpf(0)
        for s in itertools.permutations(range(n)):
            term = mp.mpc(1)
            for pos in range(n):
                term *= a[pos][s[pos]]
                for k in range(pos + 1, n):
                    term *= b[pos][s[k]] * g[s[pos]][s[k]]
            total += term
            abs_total += abs(term)
        return complex(total), float(abs_total)


def ref_log_z_determinant(spec, bc, setup, dps=50):
    """log of the normalized partition function from the determinant formula,
    at ``dps`` significant digits: sigma(u) = -theta_1(pi u, q) through
    ``mpmath.jtheta`` (q = exp(i pi tau), so |Re tau| < 1 keeps mpmath's
    q^(1/4) on the series' branch), then ``mpmath.det``.

    The entries are sigma(2u_a) sigma(eta) lam_xi_k / (lam_u_a
    sigma(u_a - xi_k) sigma(u_a + xi_k) sigma(u_a - xi_k + eta)
    sigma(u_a + xi_k + eta)), with lam_u = sigma(l1 + z + u) sigma(l2 + z + u)
    and lam_xi = sigma(l1 + z - xi) sigma(l2 + z + xi); the determinant is
    times prod sigma(u_a - xi_k) sigma(u_a + xi_k + eta) and divided by
    prod_{a<b} sigma(u_b - u_a) sigma(u_a + u_b + eta) sigma(xi_a - xi_b)
    sigma(xi_a + xi_b).  The imaginary part is fixed only mod 2 pi."""
    with mp.workdps(dps):
        q = mp.exp(mp.mpc(0, 1) * mp.pi * mp.mpc(setup.tau))

        def s(z):
            return -mp.jtheta(1, mp.pi * z, q)

        eta = mp.mpc(setup.eta)
        l1 = mp.mpc(bc.lambda1) + mp.mpc(bc.zeta)
        l2 = mp.mpc(bc.lambda2) + mp.mpc(bc.zeta)
        u = [mp.mpc(v) for v in spec.u]
        xi = [mp.mpc(v) for v in spec.xi]
        n = len(u)
        s_eta = s(eta)
        matrix = mp.matrix(n, n)
        log_z = mp.mpc(0)
        for a in range(n):
            row = s(2 * u[a]) * s_eta / (s(l1 + u[a]) * s(l2 + u[a]))
            for k in range(n):
                minus, plus_eta = s(u[a] - xi[k]), s(u[a] + xi[k] + eta)
                matrix[a, k] = row * s(l1 - xi[k]) * s(l2 + xi[k]) / (
                    minus * s(u[a] + xi[k]) * s(u[a] - xi[k] + eta) * plus_eta)
                log_z += mp.log(minus) + mp.log(plus_eta)
        for a in range(n):
            for b in range(a + 1, n):
                log_z -= (mp.log(s(u[b] - u[a])) + mp.log(s(u[a] + u[b] + eta))
                          + mp.log(s(xi[a] - xi[b])) + mp.log(s(xi[a] + xi[b])))
        return complex(log_z + mp.log(mp.det(matrix)))
