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
