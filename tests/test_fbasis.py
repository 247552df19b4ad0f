"""Factorizing twist: uniqueness, triangularity, factorizing property,
extremal-state invariance, and the polarization-free twisted operators."""

import hashlib
from itertools import permutations

import numpy as np
import pytest

from ellipdw import (PermutationWord, extremal_invariance_residual, f_matrix,
                     factorizing_residual, fbasis, r_s_operator, reduced_word,
                     twisted_creation_residual)
from ellipdw.config import parse_config
from ellipdw.errors import DomainError, SizeError
from ellipdw.fbasis import (MAX_F_N, basis_order, f_inverse_matrix, inversion_count,
                            triangularity_defect, twisted_one_row_residual)
from ellipdw.rmatrices import sos_R_matrix
from ellipdw.runner import identity_checks

from conftest import random_weight


@pytest.fixture(scope="module")
def l_weight(setup):
    rng = np.random.default_rng(51)
    return random_weight(rng, setup)


def test_reduced_word_lengths():
    for seq in permutations((1, 2, 3, 4)):
        pw = reduced_word(seq)
        assert pw.length == inversion_count(seq)


def test_identity_permutation_is_identity_operator(draw, bc, setup, l_weight):
    spec = draw(3, 120, setup, bc)
    op = r_s_operator(reduced_word((1, 2, 3)), l_weight, spec, setup)
    assert np.max(np.abs(op.mat - np.eye(8))) == 0.0


def test_single_transposition_is_dynamical_R(draw, bc, setup, l_weight):
    spec = draw(2, 121, setup, bc)
    op = r_s_operator(reduced_word((2, 1)), l_weight, spec, setup)
    expected = sos_R_matrix(spec.xi[0] - spec.xi[1], l_weight, setup)
    assert np.max(np.abs(op.mat - expected)) == 0.0


def test_word_independence(draw, bc, setup, l_weight):
    """Two reduced words of the order-3 reversal give the same operator."""
    spec = draw(3, 122, setup, bc)
    r1 = r_s_operator(PermutationWord((3, 2, 1), (1, 2, 1)), l_weight, spec, setup)
    r2 = r_s_operator(PermutationWord((3, 2, 1), (2, 1, 2)), l_weight, spec, setup)
    assert np.max(np.abs(r1.mat - r2.mat)) <= 1e-11 * np.max(np.abs(r1.mat))


@pytest.mark.parametrize("n,seed", [(2, 123), (3, 124), (4, 125), (MAX_F_N, 140)])
def test_twist_triangular_and_nondegenerate(n, seed, draw, bc, setup, l_weight):
    spec = draw(n, seed, setup, bc)
    f = f_matrix(l_weight, spec, setup)
    assert triangularity_defect(f) == 0.0
    order = basis_order(n)
    diag = np.abs(np.diag(f.mat[np.ix_(order, order)]))
    assert diag.min() >= 1e-10


@pytest.mark.parametrize("n,seed", [(3, 126), (4, 127)])
def test_factorizing_property(n, seed, draw, bc, setup, l_weight):
    """F_s R^s = F for every s, one permutation at a time: R^s from
    ``r_s_operator`` and the twist F_s relabeled by s from its builder; the
    loop's maximum is ``factorizing_residual`` bit for bit."""
    spec = draw(n, seed, setup, bc)
    f_id = f_matrix(l_weight, spec, setup)
    scale = np.max(np.abs(f_id.mat))
    table = fbasis._twist_R_table(l_weight, spec, setup)
    worst = 0.0
    for seq in permutations(range(1, n + 1)):
        rs = r_s_operator(reduced_word(seq), l_weight, spec, setup).mat
        f_s = fbasis._twist(table, seq)
        residual = np.max(np.abs(f_s @ rs - f_id.mat)) / scale
        assert residual <= 1e-10
        worst = max(worst, float(residual))
    assert factorizing_residual(l_weight, spec, setup) == worst


def test_factorizing_property_at_the_guard(draw, bc, setup, l_weight):
    """F_s R^s = F at N = MAX_F_N for all 120 permutations."""
    spec = draw(MAX_F_N, 142, setup, bc)
    assert factorizing_residual(l_weight, spec, setup) <= 1e-10


@pytest.mark.parametrize("setup_name", ["setup", "setup_complex_eta"])
@pytest.mark.parametrize("n", [2, 3, 4, MAX_F_N])
def test_twist_R_table_matches_per_matrix_builds(n, setup_name, draw, bc, l_weight, request):
    """Every factor of the twist's one array build, for each ordered site
    pair (a, b) and each k spectators with n2 of them in spin 2, equals its
    own scalar ``sos_R_matrix`` build bit for bit here."""
    setup = request.getfixturevalue(setup_name)
    spec = draw(n, 150 + n, setup, bc)
    table = fbasis._twist_R_table(l_weight, spec, setup)
    assert table.shape == (n, n, n * (n - 1) // 2, 4, 4)
    for a, b in permutations(range(n), 2):
        for k in range(n - 1):
            for n2 in range(k + 1):
                ref = sos_R_matrix(spec.xi[a] - spec.xi[b],
                                   l_weight.shifted(1, setup.eta, k - 2 * n2), setup)
                assert np.array_equal(table[a, b, k * (k + 1) // 2 + n2], ref)


# sha256 (first 32 hex digits) over N = 1..5 of ``r_s_operator`` for every
# permutation and of ``f_matrix``, on draw(N, 150 + N), as the general-axes
# kernel ``conftest.apply_R_stack`` made them
TWIST_DIGESTS = {"setup": ("e2215e2645c7985a31b50a7b66c600d2", "74a92247999188831ab492ed7e314770"),
                 "setup_complex_eta": ("b190ce948d77983bcb00c13ac3f1f03b",
                                       "fa3a8119864f0760ac5a7d5cb02a5990")}


@pytest.mark.parametrize("setup_name", sorted(TWIST_DIGESTS))
def test_twist_operators_keep_their_bits(setup_name, draw, bc, l_weight, request):
    """Every R^s and the twist F at N = 1..5 have the bytes pinned above."""
    setup = request.getfixturevalue(setup_name)
    r_s, f = hashlib.sha256(), hashlib.sha256()
    for n in range(1, 6):
        spec = draw(n, 150 + n, setup, bc)
        for seq in permutations(range(1, n + 1)):
            r_s.update(r_s_operator(reduced_word(seq), l_weight, spec, setup).mat.tobytes())
        f.update(f_matrix(l_weight, spec, setup).mat.tobytes())
    assert (r_s.hexdigest()[:32], f.hexdigest()[:32]) == TWIST_DIGESTS[setup_name]


def _count_R_builds(monkeypatch):
    """The shapes of the ``sos_R_matrix`` builds ``fbasis`` makes from now on."""
    builds, build = [], fbasis.sos_R_matrix

    def counting_build(u, m, setup):
        out = build(u, m, setup)
        builds.append(out.shape)
        return out

    monkeypatch.setattr(fbasis, "sos_R_matrix", counting_build)
    return builds


def test_twist_builds_one_R_table_per_call(draw, bc, setup, l_weight, monkeypatch):
    """``r_s_operator``, ``f_matrix``, ``factorizing_residual`` and
    ``twisted_creation_residual`` each build every R factor they apply in one
    ``sos_R_matrix`` call."""
    spec = draw(4, 160, setup, bc)
    builds = _count_R_builds(monkeypatch)
    r_s_operator(reduced_word((4, 3, 2, 1)), l_weight, spec, setup)
    assert builds == [(4, 4, 6, 4, 4)]
    f_matrix(l_weight, spec, setup)
    assert builds == [(4, 4, 6, 4, 4)] * 2
    factorizing_residual(l_weight, spec, setup)
    assert builds == [(4, 4, 6, 4, 4)] * 3
    twisted_creation_residual(bc, spec, setup)
    assert builds == [(4, 4, 6, 4, 4)] * 4


def test_identity_suite_builds_three_twist_tables(monkeypatch):
    """One ``runner.identity_checks`` call makes three twist-table builds:
    F for triangularity and extremal invariance, one for the factorizing
    property, and F(lambda) for the twisted creation operators."""
    builds = _count_R_builds(monkeypatch)
    identity_checks(parse_config("{mode: identities, seed: 7}"))
    assert len(builds) == 3


@pytest.mark.parametrize("word", [(3,), (0,), (1, 3)])
def test_word_letter_outside_range_is_refused(word, draw, bc, setup, l_weight, monkeypatch):
    """A letter outside 1..N-1 is a DomainError before any R is applied."""
    spec = draw(3, 161, setup, bc)
    applied = []
    monkeypatch.setattr(fbasis, "apply_R_layer", lambda *args, **kw: applied.append(args))
    with pytest.raises(DomainError, match="outside 1..2"):
        r_s_operator(PermutationWord((2, 1, 3), word), l_weight, spec, setup)
    assert applied == []


@pytest.mark.parametrize("seq,word", [((2, 1, 3), (2,)), ((2, 1), (1,)), ((3, 2, 1), (1, 2))])
def test_word_not_producing_its_seq_is_refused(seq, word, draw, bc, setup, l_weight,
                                               monkeypatch):
    """A word that does not produce its ``seq`` (here (1, 3, 2), (2, 1, 3)
    and (2, 3, 1) on three sites) is a DomainError before any R is applied."""
    spec = draw(3, 161, setup, bc)
    applied = []
    monkeypatch.setattr(fbasis, "apply_R_layer", lambda *args, **kw: applied.append(args))
    with pytest.raises(DomainError, match="produces"):
        r_s_operator(PermutationWord(seq, word), l_weight, spec, setup)
    assert applied == []


def test_inverse_by_triangular_solve(draw, bc, setup, l_weight):
    """F F^-1 = 1, and F^-1 is exactly zero above the diagonal in the
    sorted basis order, at N = 3 and at the guard."""
    for n, seed in ((3, 128), (MAX_F_N, 142)):
        f = f_matrix(l_weight, draw(n, seed, setup, bc), setup)
        inv = f_inverse_matrix(f)
        assert np.max(np.abs(f.mat @ inv - np.eye(2 ** n))) <= 1e-12, n
        order = basis_order(n)
        assert not np.triu(inv[np.ix_(order, order)], k=1).any(), n


@pytest.mark.parametrize("n,seed,tol", [(1, 129, 1e-14), (2, 130, 1e-11), (3, 131, 1e-10),
                                        (MAX_F_N, 141, 1e-10)])
def test_extremal_invariance(n, seed, tol, draw, bc, setup, l_weight):
    spec = draw(n, seed, setup, bc)
    assert extremal_invariance_residual(f_matrix(l_weight, spec, setup)) <= tol


@pytest.mark.parametrize("n,seed", [(2, 132), (3, 133)])
def test_twisted_one_row_polarization_free(n, seed, draw, bc, setup, l_weight):
    spec = draw(n, seed, setup, bc)
    assert twisted_one_row_residual(l_weight, 0.23 + 0.07j, spec, setup) <= 1e-10


def test_twisted_creation_n1_single_entry(draw, bc, setup):
    spec = draw(1, 134, setup, bc)
    assert twisted_creation_residual(bc, spec, setup) <= 1e-11


@pytest.mark.parametrize("n,seed", [(2, 135), (3, 136), (4, 137)])
def test_twisted_creation_matches_explicit(n, seed, draw, bc, setup):
    spec = draw(n, seed, setup, bc)
    assert twisted_creation_residual(bc, spec, setup) <= 1e-9


def test_creation_operator_is_sitewise_nilpotent(draw, bc, setup):
    """Single-site raising operators square to zero: applying the explicit
    twisted form twice to a one-flip state annihilates the same-site flip."""
    from ellipdw.fbasis import twisted_creation_explicit
    spec = draw(2, 138, setup, bc)
    lam = bc.weight
    m = lam.shifted(1, setup.eta, -2)
    op = twisted_creation_explicit(m, bc, spec.u[1], spec, setup)
    psi = np.zeros(4, dtype=complex)
    psi[3] = 1.0  # all down
    once = op @ psi
    m2 = lam.shifted(1, setup.eta, 0)
    op2 = twisted_creation_explicit(m2, bc, spec.u[0], spec, setup)
    twice = op2 @ once
    # the doubly-flipped-at-same-site component is absent: only |11> survives
    assert abs(twice[1]) <= 1e-12 * np.max(np.abs(twice))
    assert abs(twice[2]) <= 1e-12 * np.max(np.abs(twice))


def test_size_guard(draw, bc, setup, l_weight):
    spec = draw(5, 139, setup, bc)
    big = type(spec)(u=spec.u + (0.4 + 0.01j,), xi=spec.xi + (-0.33 + 0.01j,))
    with pytest.raises(SizeError):
        f_matrix(l_weight, big, setup)
