"""Acceptance gate for the shipped numerics.

Eight end-to-end checks, one per advertised guarantee. Each test prints a
single [PASS]/[FAIL] line (visible without -s) and then asserts the same
conditions, so a red line and a red test always point at the same fact.

Criterion 3 asserts the settled-coefficient scaling alpha_n * n**0.8 at
n = 10**6 against its two-term expansion 0.4 + n**-0.2, not against its
limit 0.4 alone. The n**-0.2 term is the diagonal stream's own 1/n
contribution; it is still 0.0631 at n = 10**6 (the product is 0.46309, 15.8%
above the limit), and the remaining terms are O(1/n). Keeping the 5% band
around the two-term value, at the same n, means a dropped or doubled
diagonal stream, or a wrong difference power, still turns the gate red.
"""

import time
from fractions import Fraction

import numpy as np

from semiframe.core import (
    TruncationLadder, covering_shifts, line_grid, periodization_gap,
    periodize,
)
from semiframe.exponentials import (
    ExponentialSystem, defer_negatives_ordering, family_on_grid,
)
from semiframe.families import (
    decaying_probe, interleaved_coefficients, interleaved_difference_family,
    seeded_dense_family, shared_direction_family,
)
from semiframe.muckenhoupt import (
    ConstantWeight, ScaledWeight, a2_estimate, a2_ratio, plateau_candidates,
    plateau_ratio_closed_form, plateau_weight,
)
from semiframe.operators import (
    adjoint_gap, canonical_dual, dual_via_pseudoinverse, frame_matrix,
    lower_bound, parseval_canonical, permutation_gap, reconstruct, s_apply,
    w_membership,
)
from semiframe.scenarios import _trig_poly, registry_vector_families
from semiframe.translates import (
    TranslateSystem, brute_apply, canonical_dual_translates,
    classify_translates, line_window, plateau_band_system, pphi,
    reconstruct_translates, unit_indicator_profile, walnut_apply,
)

TRACE_WINDOW = 1e-2


def _emit(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label} {detail}")


def test_criterion_1_shared_direction_dual_bound_reconstruction(capsys):
    t0 = time.perf_counter()
    fam = shared_direction_family(0.0)
    level = (257, 256)
    ladder = TruncationLadder(((65, 64), (129, 128), (257, 256)))
    dual = canonical_dual(fam, level)

    expected = np.zeros((level[1], level[0]), dtype=complex)
    for row in range(level[1]):
        expected[row, row + 1] = 1.0
    dual_err = float(np.abs(dual.vectors - expected).max())

    per_level, verdict = lower_bound(fam, ladder)
    bound_dev = max(abs(val - 1.0) for _, val in per_level)

    e1 = np.zeros(level[0], dtype=complex)
    e1[0] = 1.0
    res = reconstruct(e1, fam, dual, level)
    recon_dev = abs(res.rel_error - 1.0)

    elapsed = time.perf_counter() - t0
    ok = (dual_err <= 1e-10 and bound_dev <= 1e-10 and recon_dev <= 1e-10
          and elapsed < 5.0)
    _emit(capsys, ok, "criterion-1",
          f"dual-err={dual_err:.2e} bound-dev={bound_dev:.2e} "
          f"recon-dev={recon_dev:.2e} runtime={elapsed:.2f}s")
    assert dual_err <= 1e-10
    assert bound_dev <= 1e-10
    assert verdict.kind == "Convergent"
    assert recon_dev <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_dual_routes_agree(capsys):
    t0 = time.perf_counter()
    cases = [
        (shared_direction_family(0.0, name="diana-links"), (257, 256)),
        (shared_direction_family(1.0, name="growing-links"), (129, 128)),
    ]
    cases += [(seeded_dense_family(s), (32, 64)) for s in range(5)]
    worst = 0.0
    for fam, level in cases:
        via_inverse = canonical_dual(fam, level)
        via_pinv = dual_via_pseudoinverse(fam, level)
        gap = float(np.linalg.norm(via_inverse.vectors - via_pinv.vectors,
                                   axis=1).max())
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _emit(capsys, ok, "criterion-2",
          f"families={len(cases)} max-route-gap={worst:.2e} "
          f"runtime={elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_3_interleaved_scalings_and_membership(capsys):
    t0 = time.perf_counter()
    n = 10 ** 6
    a, b, g = interleaved_coefficients(n, n)
    alpha_scaled = float(a[0] * n ** 0.8)
    beta_scaled = float(b[0] * n ** -0.2)
    gamma_scaled = float(g[0] * n ** -0.2)
    # Settled coefficient, from the family's definition: difference members
    # k^{8/5} (e_k - e_{k-1}), diagonal members sqrt(k) e_k, probe
    # h_n = n^-2. Coordinate n collects u_n from difference member n,
    # -u_{n+1} from difference member n + 1 and sqrt(n) * n^-2 * sqrt(n)
    # = 1/n from diagonal member n, so alpha_n = u_n - u_{n+1} + 1/n with
    #   u_n = n^{16/5} (n^-2 - (n-1)^-2) = -2 n^0.2 - 3 n^-0.8 - 4 n^-1.8 - ...
    # Expanding u_n - u_{n+1} = 0.4 n^-0.8 - 2.56 n^-1.8 + O(n^-2.8) gives
    #   alpha_n n^0.8 = 0.4 + n^-0.2 - 2.56 / n + O(n^-2).
    # The limit is 0.4, but the diagonal term n^-0.2 is still 0.0631 at
    # n = 10**6; the gate keeps its n and its 5% band and centres the band
    # on the two leading terms, which leaves a remainder of about -2.6e-6.
    alpha_expected = 0.4 + n ** -0.2
    alpha_rem = alpha_scaled - alpha_expected
    alpha_ok = abs(alpha_rem) <= 0.05 * 0.4
    beta_ok = abs(beta_scaled + 2.0) <= 0.10 * 2.0
    gamma_ok = abs(gamma_scaled + 2.0) <= 0.10 * 2.0

    fam = interleaved_difference_family()
    ladder = TruncationLadder(((130, 257), (258, 513), (514, 1025),
                               (1026, 2049)))
    d_top = 1026
    e5 = np.zeros(d_top, dtype=complex)
    e5[4] = 1.0
    wm = w_membership(fam, decaying_probe(d_top),
                      [e5, decaying_probe(d_top, power=-3.0)], ladder,
                      rule_counts=np.array([10 ** 4, 10 ** 5, 10 ** 6]))
    member_ok = (wm.in_T_domain.kind == "Convergent"
                 and wm.in_W_domain.kind == "Divergent"
                 and wm.prefix_exponent is not None
                 and abs(wm.prefix_exponent - 0.2) <= 0.05)

    elapsed = time.perf_counter() - t0
    ok = alpha_ok and beta_ok and gamma_ok and member_ok and elapsed < 30.0
    exp_text = ("n/a" if wm.prefix_exponent is None
                else f"{wm.prefix_exponent:.3f}")
    _emit(capsys, ok, "criterion-3",
          f"alpha*n^0.8={alpha_scaled:.5f} (target 0.4+n^-0.2 +-5%: "
          f"{'ok' if alpha_ok else 'off'}, remainder {alpha_rem:.2e}) "
          f"beta*k^-0.2={beta_scaled:.5f} ({'ok' if beta_ok else 'off'}) "
          f"gamma*k^-0.2={gamma_scaled:.5f} ({'ok' if gamma_ok else 'off'}) "
          f"membership T={wm.in_T_domain.kind}/W={wm.in_W_domain.kind} "
          f"exp={exp_text} runtime={elapsed:.2f}s")
    assert elapsed < 30.0
    assert beta_ok, beta_scaled
    assert gamma_ok, gamma_scaled
    assert member_ok, (wm.in_T_domain.kind, wm.in_W_domain.kind,
                       wm.prefix_exponent)
    # two-term expansion of alpha_n n^0.8: derivation above alpha_expected
    assert alpha_ok, (alpha_scaled, alpha_expected)


def test_criterion_4_plateau_interval_ratios(capsys):
    t0 = time.perf_counter()
    w = plateau_weight(9, power=2)
    worst_rel = 0.0
    all_exact = True
    all_above = True
    tested = []
    for k, lo, hi in plateau_candidates(9):
        if not 3 <= k <= 8:
            continue
        tested.append(k)
        ratio = a2_ratio(w, lo, hi)
        closed = plateau_ratio_closed_form(k, power=2)
        all_exact = all_exact and ratio == closed
        worst_rel = max(worst_rel, abs(float(ratio) / float(closed) - 1.0))
        all_above = all_above and ratio > Fraction((k + 1) ** 2, 4)
    report = a2_estimate(w, candidates=plateau_candidates(9))
    elapsed = time.perf_counter() - t0
    ok = (tested == [3, 4, 5, 6, 7, 8] and all_exact and worst_rel <= 1e-12
          and all_above and report.verdict == "NotInA2" and elapsed < 5.0)
    _emit(capsys, ok, "criterion-4",
          f"k=3..8 closed-form-exact={all_exact} rel-gap={worst_rel:.1e} "
          f"above-floor={all_above} verdict={report.verdict} "
          f"runtime={elapsed:.2f}s")
    assert tested == [3, 4, 5, 6, 7, 8]
    assert all_exact
    assert worst_rel <= 1e-12
    assert all_above
    assert report.verdict == "NotInA2"
    assert elapsed < 5.0


def test_criterion_5_orthonormal_translates(capsys):
    t0 = time.perf_counter()
    system = TranslateSystem(unit_indicator_profile(), 1.0,
                             name="unit-indicator-integers")
    p, _ = pphi(system, m=1024, tail_terms=10 ** 4)
    flat = float(np.abs(p.values - 1.0).max())

    m = 1024
    nodes = line_window(system, m, 6.0)
    rng = np.random.default_rng([42, 4])
    worst_op = 0.0
    for j in range(8):
        if j < 6:
            q = _trig_poly(42 + 20 + j, 40)
            f_vals = q(nodes) * system.profile(nodes)
        else:
            center = float(rng.uniform(-0.3, 0.3))
            width = float(rng.uniform(0.1, 0.3))
            f_vals = np.exp(-(nodes - center) ** 2 / (2 * width ** 2)) \
                * system.profile(nodes)
        fg = line_grid(f_vals, 1.0 / m)
        via_fold = walnut_apply(system, fg)
        via_sum = brute_apply(system, fg, 256)
        gap = float(np.linalg.norm(via_fold.values - via_sum.values)
                    / np.linalg.norm(via_fold.values))
        worst_op = max(worst_op, gap)

    elapsed = time.perf_counter() - t0
    ok = flat <= 1e-5 and worst_op <= 1e-6 and elapsed < 60.0
    _emit(capsys, ok, "criterion-5",
          f"max|p-1|={flat:.2e} fold-vs-sum@256={worst_op:.2e} "
          f"runtime={elapsed:.2f}s")
    assert flat <= 1e-5
    assert worst_op <= 1e-6
    assert elapsed < 60.0


def test_criterion_6_plateau_band_reconstruction(capsys):
    t0 = time.perf_counter()
    system = plateau_band_system(6, power=1)
    cls = classify_translates(system, m=4096)
    lower = cls.verdict("lower_for_span")
    bessel = cls.verdict("bessel")

    dual = canonical_dual_translates(system, m=4096)
    worst_rec = 0.0
    for j in range(3):
        q = _trig_poly(42 + j, 31)
        probe = lambda xi, q=q: q(xi) * dual.profile(np.asarray(xi))
        res = reconstruct_translates(system, probe, m=4096, cover=1.0)
        worst_rec = max(worst_rec, res.rel_error)

    elapsed = time.perf_counter() - t0
    ok = (lower == "Yes" and bessel == "No" and worst_rec <= 1e-7
          and elapsed < 30.0)
    _emit(capsys, ok, "criterion-6",
          f"lower-for-span={lower} bessel={bessel} recon-err={worst_rec:.2e} "
          f"runtime={elapsed:.2f}s")
    assert lower == "Yes"
    assert bessel == "No"
    assert worst_rec <= 1e-7
    assert elapsed < 30.0


def test_criterion_7_ordering_properties(capsys):
    t0 = time.perf_counter()
    worst_perm = 0.0
    for _, fam, level in registry_vector_families():
        worst_perm = max(worst_perm,
                         permutation_gap(fam, level, n_perms=20, seed=7))

    esys = ExponentialSystem(ConstantWeight(1), 1.0, 1024,
                             name="flat-exponentials")
    fam = family_on_grid(esys)
    probe = (esys.grid() - 0.5).astype(complex)
    level = (esys.m, 1025)
    _, nat = s_apply(fam, probe, level, window=TRACE_WINDOW)
    _, adv = s_apply(fam, probe, level,
                     ordering=defer_negatives_ordering(1025),
                     window=TRACE_WINDOW)

    elapsed = time.perf_counter() - t0
    ok = (worst_perm <= 1e-11 and nat.stabilized and not adv.stabilized
          and elapsed < 30.0)
    _emit(capsys, ok, "criterion-7",
          f"max-perm-gap={worst_perm:.2e} natural-settles={nat.stabilized} "
          f"deferred-settles={adv.stabilized} "
          f"(variations {nat.variation:.1e} vs {adv.variation:.1e}) "
          f"runtime={elapsed:.2f}s")
    assert worst_perm <= 1e-11
    assert nat.stabilized
    assert not adv.stabilized
    assert adv.variation > nat.variation * 10
    assert elapsed < 30.0


def test_criterion_8_invariant_suite(capsys):
    t0 = time.perf_counter()
    worst_adj = max(
        adjoint_gap(seeded_dense_family(0), (16, 32)),
        adjoint_gap(shared_direction_family(0.0), (65, 64)),
        adjoint_gap(shared_direction_family(1.0), (65, 64)))

    worst_herm, worst_eig = 0.0, 0.0
    for _, fam, level in registry_vector_families():
        s = frame_matrix(fam, level)
        worst_herm = max(worst_herm, s.hermiticity_gap)
        worst_eig = min(worst_eig, s.min_eigenvalue())

    worst_parseval = 0.0
    for fam, level in [(shared_direction_family(0.0), (33, 32)),
                       (shared_direction_family(1.0), (33, 32)),
                       (seeded_dense_family(0), (16, 32))]:
        _, gap = parseval_canonical(fam, level)
        worst_parseval = max(worst_parseval, gap)

    # Bessel bound of the canonical dual stays under 1/A
    d_flat = canonical_dual(shared_direction_family(0.0), (257, 256))
    d_grow = canonical_dual(shared_direction_family(1.0), (129, 128))
    bessel_ok = (d_flat.bessel_bound_estimate <= 1.0 + 1e-6
                 and d_grow.bessel_bound_estimate <= 0.25 + 1e-6)

    xs = np.arange(-513, 514) / 64.0
    wg = line_grid(np.exp(-xs ** 2 / 2.0), 1.0 / 64)
    folded = periodize(wg, 1.0, covering_shifts(wg, 1.0))
    fold_gap = periodization_gap(wg, folded)

    w1 = plateau_weight(5, power=1)
    ratio_floor_ok = all(
        a2_ratio(w1, lo, hi) >= 1 - Fraction(1, 10 ** 12)
        for _, lo, hi in plateau_candidates(5))
    scale = Fraction(7, 3)
    scaled = ScaledWeight(w1, scale)
    lo, hi = Fraction(1, 64), Fraction(1, 2)
    scale_exact = a2_ratio(scaled, lo * scale, hi * scale) \
        == a2_ratio(w1, lo, hi)

    elapsed = time.perf_counter() - t0
    ok = (worst_adj <= 1e-14 and worst_herm <= 1e-12 and worst_eig >= -1e-10
          and worst_parseval <= 1e-9 and bessel_ok and fold_gap <= 1e-8
          and ratio_floor_ok and scale_exact and elapsed < 180.0)
    _emit(capsys, ok, "criterion-8",
          f"adjoint={worst_adj:.1e} herm={worst_herm:.1e} "
          f"min-eig={worst_eig:.1e} parseval={worst_parseval:.1e} "
          f"dual-bessel-capped={bessel_ok} fold-gap={fold_gap:.1e} "
          f"ratio-floor={ratio_floor_ok} scale-exact={scale_exact} "
          f"runtime={elapsed:.2f}s")
    assert worst_adj <= 1e-14
    assert worst_herm <= 1e-12
    assert worst_eig >= -1e-10
    assert worst_parseval <= 1e-9
    assert bessel_ok
    assert fold_gap <= 1e-8
    assert ratio_floor_ok
    assert scale_exact
    assert elapsed < 180.0
