"""The two benchmark workloads: inputs built from a seed, then one pass.

Every workload is a closed loop with one caller: each library call starts
after the previous one has returned and been checked. `build` makes every
input the library will see from the seed; `run` makes one pass over them,
records each operation in a Ledger and ends with the scenarios of the
registry that use the same modules, each run through the command line as
users run it, its report written under the pass's output directory.
Library functions are always looked up through their module at call time,
so the traced run sees every call the untraced run makes.

Sizes come in two sets: FULL is the benchmark, SMOKE is the self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semiframe import (
    cli, core, exponentials, families, muckenhoupt, operators, translates,
)

from layers import (
    A2_DEPTH, DUAL_COUNTS, LADDER_SCENARIOS, PPHI_TAILS, ROUTE_COUNTS,
    SPECTRAL_SCENARIOS,
)

# window for "the partial sums have visibly settled", as in the registry
TRACE_WINDOW = 1e-2


@dataclass(frozen=True)
class Sizes:
    dual_counts: tuple          # canonical_dual and lower_bound ladder
    route_counts: tuple         # dual_via_pseudoinverse / parseval_canonical
    dense_level: tuple
    interleaved_members: int
    interleaved_ladder: tuple
    rule_counts: tuple
    n_perms: int
    flat_cells: int
    flat_counts: tuple
    pphi_grid: int
    pphi_tails: tuple
    compact_grid: int
    brute_shifts: int
    exp_cells: int
    double_cells: int
    a2_depth: int
    ladder_scenarios: tuple
    spectral_scenarios: tuple


FULL = Sizes(
    dual_counts=DUAL_COUNTS, route_counts=ROUTE_COUNTS,
    dense_level=(256, 512), interleaved_members=1025,
    interleaved_ladder=((130, 257), (258, 513), (514, 1025), (1026, 2049)),
    rule_counts=(10 ** 4, 10 ** 5, 10 ** 6), n_perms=20,
    flat_cells=1024, flat_counts=(257, 513, 1025),
    pphi_grid=1024, pphi_tails=PPHI_TAILS,
    compact_grid=4096, brute_shifts=256, exp_cells=2 ** 16,
    double_cells=2048, a2_depth=A2_DEPTH,
    ladder_scenarios=LADDER_SCENARIOS, spectral_scenarios=SPECTRAL_SCENARIOS)

SMOKE = Sizes(
    dual_counts=(32, 64, 128), route_counts=(32, 64),
    dense_level=(32, 64), interleaved_members=129,
    interleaved_ladder=((18, 33), (34, 65), (66, 129), (130, 257)),
    rule_counts=(10 ** 4, 10 ** 5, 10 ** 6), n_perms=3,
    flat_cells=256, flat_counts=(65, 129, 257),
    pphi_grid=256, pphi_tails=(10, 1000),
    compact_grid=1024, brute_shifts=64, exp_cells=2 ** 10,
    double_cells=512, a2_depth=13,
    ladder_scenarios=("s-not-closed",), spectral_scenarios=("plateau-exp",))


def _trig_poly(rng, degree: int):
    """Seeded 1-periodic trigonometric polynomial with 1/(1+|n|) decay."""
    coeffs = rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1)
    coeffs /= 1.0 + np.abs(np.arange(-degree, degree + 1))

    def q(gamma):
        z = np.exp(2j * np.pi * np.asarray(gamma, dtype=float))
        acc = np.zeros(z.shape, dtype=complex)
        for c in coeffs[::-1]:
            acc = acc * z + c
        return acc * z ** -degree

    return q


def _max_gap(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _rel_gap(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# ---------------------------------------------------------------------------
# ladders: vector families on truncation ladders


def build_ladders(seed: int, size: Sizes) -> dict:
    rng = np.random.default_rng([seed, 1])
    growing = families.shared_direction_family(1.0, name="growing-links")
    d = size.route_counts[-1] + 1
    probe = rng.normal(size=d) + 1j * rng.normal(size=d)
    probe[0] = 0.0                                # inside the analysis domain
    esys = exponentials.ExponentialSystem(
        muckenhoupt.ConstantWeight(1), 1.0, size.flat_cells,
        name="flat-exponentials")
    return {
        "growing": growing,
        "ladder": core.TruncationLadder(
            tuple((n + 1, n) for n in size.dual_counts)),
        "probe": probe / np.linalg.norm(probe),
        "dense": families.seeded_dense_family(int(rng.integers(1 << 30))),
        "interleaved": families.interleaved_difference_family(),
        "test_index": int(rng.integers(3, 12)),
        "perm_seed": int(rng.integers(1 << 30)),
        "flat": exponentials.family_on_grid(esys),
        "flat_probe": (esys.grid() - rng.uniform(0.35, 0.65)).astype(complex),
        "size": size,
        "seed": seed,
    }


def _scaled_basis_gap(vectors: np.ndarray) -> float:
    """max |dual - e_n / n| for the growing family, whose member rows start
    at index 2; the comparison never builds the dense exact dual."""
    rows = np.arange(vectors.shape[0])
    diag = vectors[rows, rows + 1]
    off = np.abs(vectors)
    off[rows, rows + 1] = 0.0
    return max(float(off.max()), _max_gap(diag, 1.0 / (rows + 2)))


def run_ladders(inp: dict, ledger, out_dir: Path) -> None:
    size, fam = inp["size"], inp["growing"]
    duals = {}
    for n in size.dual_counts:
        level = (n + 1, n)
        with ledger.op(f"operators.canonical_dual.N{n}") as c:
            dual = operators.canonical_dual(fam, level)
            c.within(_scaled_basis_gap(dual.vectors), 1e-9,
                     metric="operators.dual_exact_gap")
        if n in size.route_counts:
            duals[n] = dual
        del dual

    with ledger.op("operators.lower_bound") as c:
        per_level, verdict = operators.lower_bound(fam, inp["ladder"])
        c.within(max(abs(lam - 4.0) for _, lam in per_level), 1e-8)
        c.expect(verdict.kind, core.CONVERGENT)

    for n in size.route_counts:
        level = (n + 1, n)
        with ledger.op(f"operators.dual_via_pseudoinverse.N{n}") as c:
            pinv = operators.dual_via_pseudoinverse(fam, level)
            c.within(_max_gap(pinv.vectors, duals[n].vectors), 1e-9,
                     metric="operators.dual_route_gap")
        del pinv
        with ledger.op(f"operators.parseval_canonical.N{n}") as c:
            _, gap = operators.parseval_canonical(fam, level)
            c.within(gap, 1e-9, metric="operators.parseval_gap")

    n = size.route_counts[-1]
    with ledger.op("operators.reconstruct") as c:
        level = (n + 1, n)
        rec = operators.reconstruct(inp["probe"], fam, duals[n], level)
        c.within(rec.rel_error, 1e-9)
    duals.clear()

    dense = inp["dense"]
    with ledger.op("operators.dense_dual_routes") as c:
        inv = operators.canonical_dual(dense, size.dense_level)
        pinv = operators.dual_via_pseudoinverse(dense, size.dense_level)
        c.within(_max_gap(inv.vectors, pinv.vectors), 1e-9,
                 metric="operators.dual_route_gap")

    _run_interleaved(inp, ledger)
    _run_flat_orderings(inp, ledger)
    run_scenarios(inp, ledger, out_dir, size.ladder_scenarios)


def _run_interleaved(inp: dict, ledger) -> None:
    size, fam = inp["size"], inp["interleaved"]
    n_members = size.interleaved_members
    k_top = (n_members + 1) // 2
    d = k_top + 2
    with ledger.op("operators.frame_action") as c:
        acted = operators.frame_action(fam, families.decaying_probe(d),
                                       (d, n_members))
        alpha, _, gamma = families.interleaved_coefficients(2, k_top)
        predicted = np.zeros(d, dtype=complex)
        predicted[0] = families.INTERLEAVED_HEAD
        predicted[1:k_top - 1] = alpha[:k_top - 2]
        predicted[k_top - 1] = gamma[k_top - 2]
        rel = np.abs(acted - predicted) / (np.abs(predicted) + 1e-12)
        c.within(float(rel[:k_top].max()), 1e-9)

    with ledger.op("operators.s_apply.prefix_rule") as c:
        level = (k_top + 2, n_members)
        _, trace = operators.s_apply(fam, families.decaying_probe(level[0]),
                                     level)
        rule = families.interleaved_prefix_norms(n_members)
        c.within(float(np.max(np.abs(trace.prefix_norms - rule) / rule)), 1e-8)

    with ledger.op("operators.w_membership") as c:
        ladder = core.TruncationLadder(size.interleaved_ladder)
        d_top = ladder.top[0]
        e_k = np.zeros(d_top, dtype=complex)
        e_k[inp["test_index"] - 1] = 1.0
        tests = [e_k, families.decaying_probe(d_top, power=-3.0)]
        wm = operators.w_membership(fam, families.decaying_probe(d_top), tests,
                                    ladder, rule_counts=np.array(size.rule_counts))
        c.expect((wm.in_T_domain.kind, wm.in_W_domain.kind),
                 (core.CONVERGENT, core.DIVERGENT))

    with ledger.op("operators.permutation_gap") as c:
        level = size.interleaved_ladder[1]
        gap = operators.permutation_gap(fam, level, n_perms=size.n_perms,
                                        seed=inp["perm_seed"])
        c.within(gap, 1e-11)


def _run_flat_orderings(inp: dict, ledger) -> None:
    size, fam, probe = inp["size"], inp["flat"], inp["flat_probe"]
    natural = []
    for n in size.flat_counts:
        level = (size.flat_cells, n)
        with ledger.op(f"operators.s_apply.orderings.N{n}") as c:
            vec_nat, nat = operators.s_apply(fam, probe, level,
                                             window=TRACE_WINDOW)
            order = exponentials.defer_negatives_ordering(n)
            vec_adv, adv = operators.s_apply(fam, probe, level, ordering=order,
                                             window=TRACE_WINDOW)
            natural.append(nat.variation)
            c.holds(adv.variation >= 0.05,
                    f"deferred order settled ({adv.variation:.3e})")
            c.within(_rel_gap(vec_adv, vec_nat), 1e-12,
                     metric="operators.ordering_endpoint_gap")
    with ledger.op("operators.s_apply.natural_settles") as c:
        c.holds(natural[-1] <= TRACE_WINDOW and natural[-1] < natural[0],
                f"natural-order variations {natural}")


# ---------------------------------------------------------------------------
# spectral: translates, exponentials and interval tests


def hat_profile():
    """Linear B-spline on [-1, 1]: transform sinc^2, p = (2 + cos 2 pi g) / 3."""
    return translates.FourierProfile("hat", lambda g: np.sinc(g) ** 2,
                                     support=None)


def _p_hat(gamma):
    return (2.0 + np.cos(2.0 * np.pi * gamma)) / 3.0


def _p_raised_cosine(gamma):
    return 0.75 + 0.25 * np.cos(2.0 * np.pi * np.asarray(gamma, dtype=float))


def build_spectral(seed: int, size: Sizes) -> dict:
    rng = np.random.default_rng([seed, 2])
    m = size.compact_grid
    unit = translates.TranslateSystem(translates.unit_indicator_profile(), 1.0,
                                      name="unit-indicator-integers")
    hat = translates.TranslateSystem(hat_profile(), 1.0, name="hat-integers")
    raised = translates.TranslateSystem(
        translates.raised_cosine_profile(), 1.0, name="raised-cosine-integers",
        known_p=_p_raised_cosine, ess_inf_hint=0.5)
    nodes = translates.line_window(raised, m, 1.0)
    walnut_probes = []
    for j in range(8):
        if j < 6:
            shape = _trig_poly(rng, 40)(nodes)
        else:
            center, width = rng.uniform(-0.3, 0.3), rng.uniform(0.1, 0.3)
            shape = np.exp(-(nodes - center) ** 2 / (2 * width ** 2))
        walnut_probes.append(core.line_grid(shape * raised.profile(nodes), 1.0 / m))
    wsq = muckenhoupt.plateau_weight(6, power=2)
    return {
        "unit": unit, "hat": hat, "raised": raised,
        "unit_probes": [_trig_poly(rng, 20) for _ in range(3)],
        "raised_probes": [_trig_poly(rng, 25) for _ in range(3)],
        "walnut_probes": walnut_probes,
        "band": translates.plateau_band_system(6, power=1),
        "exp": exponentials.ExponentialSystem(wsq, 1.0, size.exp_cells,
                                              name="plateau-exponentials"),
        "exp_probe": rng.normal(size=size.exp_cells)
        + 1j * rng.normal(size=size.exp_cells),
        "double": exponentials.ExponentialSystem(wsq, 2.0, size.double_cells,
                                                 name="double-density"),
        "double_probe": rng.normal(size=size.double_cells)
        + 1j * rng.normal(size=size.double_cells),
        "weights": {
            "plateau-k6p2": wsq,
            "plateau-k8p1": muckenhoupt.plateau_weight(8, power=1),
            "constant": muckenhoupt.ConstantWeight(1),
            "power": muckenhoupt.PowerWeight(0.6),
            "sampled": muckenhoupt.SampledWeight(
                np.exp(rng.normal(size=4096)),
                descriptor={"kind": "sampled", "cells": 4096}),
        },
        "size": size,
        "seed": seed,
    }


# alias terms for verdicts on the unit indicator: its flatness gap at this
# K (5e-8) is already far inside the orthonormality tolerance (1e-6)
CLASSIFY_TAIL = 1000


def pphi_tolerance(tail_terms: int) -> float:
    """Error model of the 2K-term Richardson alias sum: O(K^-2)."""
    return 1.0 / tail_terms ** 2


def run_spectral(inp: dict, ledger, out_dir: Path) -> None:
    size = inp["size"]
    for key, exact in (("unit", lambda g: np.ones_like(g)), ("hat", _p_hat)):
        system = inp[key]
        for k in size.pphi_tails:
            name = f"translates.pphi.{system.profile.name}.K{k}"
            with ledger.op(name) as c:
                p, _ = translates.pphi(system, m=size.pphi_grid, tail_terms=k)
                c.within(_max_gap(p.values, exact(p.nodes())), pphi_tolerance(k))

    unit = inp["unit"]
    with ledger.op("translates.classify_translates.unit-indicator") as c:
        cls = translates.classify_translates(unit, m=size.pphi_grid,
                                             tail_terms=CLASSIFY_TAIL)
        c.expect({p: cls.verdict(p) for p in ("orthonormal_for_span", "bessel",
                                              "lower_for_span", "frame_for_span")},
                 dict.fromkeys(("orthonormal_for_span", "bessel",
                                "lower_for_span", "frame_for_span"), "Yes"))
    for j, q in enumerate(inp["unit_probes"]):
        with ledger.op(f"translates.reconstruct_translates.unit-indicator.{j}") as c:
            probe = lambda xi, q=q: q(xi) * unit.profile(np.asarray(xi))
            res = translates.reconstruct_translates(unit, probe, m=256, cover=6.0,
                                                    tail_terms=2000)
            c.within(res.rel_error, 1e-6, metric="translates.reconstruct.err")

    _run_compact(inp, ledger)
    _run_exponentials(inp, ledger)
    _run_a2(inp, ledger)
    run_scenarios(inp, ledger, out_dir, size.spectral_scenarios)


def _run_compact(inp: dict, ledger) -> None:
    size, raised = inp["size"], inp["raised"]
    m = size.compact_grid
    with ledger.op("translates.pphi.raised-cosine") as c:
        p, _ = translates.pphi(raised, m=m)
        c.within(_max_gap(p.values, _p_raised_cosine(p.nodes())), 1e-12)
    with ledger.op("translates.classify_translates.raised-cosine") as c:
        cls = translates.classify_translates(raised, m=m)
        c.expect({p: cls.verdict(p) for p in ("bessel", "lower_for_span",
                                              "frame_for_span",
                                              "orthonormal_for_span",
                                              "complete_whole_line")},
                 {"bessel": "Yes", "lower_for_span": "Yes",
                  "frame_for_span": "Yes", "orthonormal_for_span": "No",
                  "complete_whole_line": "No"})
    for j, fg in enumerate(inp["walnut_probes"]):
        with ledger.op(f"translates.walnut_apply.{j}") as c:
            via_fold = translates.walnut_apply(raised, fg)
            via_sum = translates.brute_apply(raised, fg, size.brute_shifts)
            c.within(_rel_gap(via_sum.values, via_fold.values), 1e-6,
                     metric="translates.fold_route_gap")
    dual = None
    with ledger.op("translates.canonical_dual_translates") as c:
        dual = translates.canonical_dual_translates(raised, m=m)
        _, rep = translates.pphi(dual, m=m)
        c.holds(rep.ess_sup <= 1.0 / raised.ess_inf_hint + 1e-6,
                f"dual energy {rep.ess_sup!r} above the inverse lower bound")
    for j, q in enumerate(inp["raised_probes"]):
        with ledger.op(f"translates.reconstruct_translates.raised-cosine.{j}") as c:
            probe = lambda xi, q=q: q(xi) * dual.profile(np.asarray(xi))
            res = translates.reconstruct_translates(raised, probe, m=m, cover=1.0)
            c.within(res.rel_error, 1e-7, metric="translates.reconstruct.err")
    with ledger.op("translates.classify_translates.plateau-band") as c:
        cls = translates.classify_translates(inp["band"], m=m)
        c.expect({p: cls.verdict(p) for p in ("lower_for_span", "bessel",
                                              "frame_for_span",
                                              "complete_whole_line")},
                 {"lower_for_span": "Yes", "bessel": "No",
                  "frame_for_span": "No", "complete_whole_line": "No"})


def _double_density_direct(system, f_values) -> np.ndarray:
    """Member-by-member frame sum at density 2 over one full residue band."""
    m, x, g = system.m, system.grid(), system.g_values()
    h = np.conj(g) * f_values
    phases = np.exp(4j * np.pi * np.outer(np.arange(-m // 4, m // 4), x))
    return g * (phases.T @ ((phases.conj() @ h) / m))


def _run_exponentials(inp: dict, ledger) -> None:
    esys, f = inp["exp"], inp["exp_probe"]
    with ledger.op("exponentials.reconstruct_exponentials") as c:
        c.within(exponentials.reconstruct_exponentials(esys, f), 1e-12,
                 metric="exponentials.reconstruct.err")
    with ledger.op("exponentials.biorthogonality_gap") as c:
        c.within(exponentials.biorthogonality_gap(esys, 24), 1e-10,
                 metric="exponentials.biorthogonality_gap")
    with ledger.op("exponentials.t_general") as c:
        tm = exponentials.t_mult(esys, f)
        c.within(_rel_gap(exponentials.t_general(esys, f), tm), 1e-13)
    dsys, fd = inp["double"], inp["double_probe"]
    with ledger.op("exponentials.t_general.double-density") as c:
        direct = _double_density_direct(dsys, fd)
        c.within(_rel_gap(exponentials.t_general(dsys, fd), direct), 1e-12)
    with ledger.op("exponentials.classify_exponentials") as c:
        cls = exponentials.classify_exponentials(esys)
        c.expect({p: cls.verdict(p) for p in ("bessel", "lower_bound", "frame",
                                              "conditional_basis")},
                 {"bessel": "No", "lower_bound": "Yes", "frame": "No",
                  "conditional_basis": "No"})


# relative roundoff allowed between a witnessed ratio and the constant,
# which reach the same interval average along different float paths
CONSTANT_ROUNDOFF = 1e-12


def _witness_max(report) -> float:
    return max((float(r) for _, _, r in report.witnesses), default=1.0)


def _run_a2(inp: dict, ledger) -> None:
    depth, weights = inp["size"].a2_depth, inp["weights"]
    for name in ("plateau-k6p2", "plateau-k8p1"):
        with ledger.op(f"muckenhoupt.a2_estimate.{name}") as c:
            rep = muckenhoupt.a2_estimate(weights[name], depth=depth)
            c.holds(rep.verdict != muckenhoupt.IN_A2,
                    f"plateau weight judged {rep.verdict}")
    with ledger.op("muckenhoupt.a2_estimate.plateau-k8p1-cand") as c:
        cands = muckenhoupt.plateau_candidates(8)
        rep = muckenhoupt.a2_estimate(weights["plateau-k8p1"], candidates=cands,
                                      depth=depth)
        c.expect(rep.verdict, muckenhoupt.NOT_IN_A2)
        # the last candidate straddles the filler piece, which has no closed form
        got = [r for _, _, r in rep.witnesses[:-1]]
        want = [float(muckenhoupt.plateau_ratio_closed_form(k))
                for k, _, _ in cands[:-1]]
        c.holds(got == want, "candidate ratios differ from their closed form")
    for name in ("constant", "power", "sampled"):
        with ledger.op(f"muckenhoupt.a2_estimate.{name}") as c:
            rep = muckenhoupt.a2_estimate(weights[name], depth=depth)
            c.expect(rep.verdict, muckenhoupt.IN_A2)
            # the reported constant must cover every ratio the scan witnessed
            c.holds(rep.constant_estimate
                    >= _witness_max(rep) * (1.0 - CONSTANT_ROUNDOFF),
                    f"constant {rep.constant_estimate!r} below witnessed "
                    f"ratio {_witness_max(rep)!r}")


# ---------------------------------------------------------------------------
# scenarios: the command users run


# the numeric gates of the registry's checks: (scenario, check) -> tolerance
REPORT_TOLERANCES = {
    ("diana", "dual-matches-shifted-basis"): 1e-10,
    ("diana", "dual-routes-agree"): 1e-9,
    ("diana", "restricted-frame-matrix-is-identity"): 1e-10,
    ("diana", "reconstruct-in-span"): 1e-10,
    ("diana", "restricted-lower-bound-one"): 1e-8,
    ("diana", "analysis-synthesis-adjoint"): 1e-13,
    ("diana", "frame-matrix-permutation-invariant"): 1e-11,
    ("stoeva", "dual-matches-scaled-basis"): 1e-9,
    ("stoeva", "dual-routes-agree"): 1e-9,
    ("stoeva", "restricted-lower-bound-four"): 1e-8,
    ("stoeva", "reconstruct-in-span"): 1e-9,
    ("stoeva", "frame-matrix-permutation-invariant"): 1e-11,
    ("interleaved-chi", "closed-form-coordinates-match-dense-sum"): 1e-9,
    ("interleaved-chi", "prefix-norm-rule-matches-trace"): 1e-8,
    ("interleaved-chi", "frame-matrix-permutation-invariant"): 1e-11,
    ("plateau-exp", "full-window-reconstruction"): 1e-12,
    ("plateau-exp", "biorthogonal-at-critical-density"): 1e-10,
    ("plateau-exp", "multiplication-form-equals-fold"): 1e-13,
    ("plateau-exp", "double-density-fold-matches-direct-sum"): 1e-12,
    ("plateau-exp", "band-dual-reconstruction"): 1e-7,
    ("ordering-sensitivity", "finite-endpoints-order-free"): 1e-12,
    ("ordering-sensitivity", "frame-matrix-permutation-invariant"): 1e-11,
    ("s-not-closed", "finite-endpoints-order-free"): 1e-12,
    ("s-not-closed", "restricted-lower-bound-one"): 1e-8,
    ("lower-translates", "aliased-energy-closed-form"): 1e-12,
    ("lower-translates", "fold-route-matches-modulation-sum"): 1e-6,
    ("lower-translates", "canonical-dual-reconstruction"): 1e-7,
    ("lower-translates", "fold-preserves-integral"): 1e-8,
}


def invoke_scenario(name: str, seed: int, out: Path) -> int:
    """One in-process CLI call; its human-readable lines are discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(["scenario", name, "--seed", str(seed),
                         "--out", str(out)])


def run_scenarios(inp: dict, ledger, out_dir: Path, names) -> None:
    """`semiframe scenario <name> --seed S --out <dir>/<name>.json` for each
    name: the scenario must pass, and every numeric check must meet the gate
    its scenario applies."""
    for name in names:
        out = out_dir / f"{name}.json"
        with ledger.op(f"scenarios.{name}") as c:
            c.expect(invoke_scenario(name, inp["seed"], out), cli.EXIT_PASS)
            report = json.loads(out.read_text()) if out.exists() else {}
            c.expect(report.get("outcome"), "pass")
            for check in report.get("checks", ()):
                tol = REPORT_TOLERANCES.get((name, check["name"]))
                if tol is not None:
                    c.within(check["value"], tol)


WORKLOADS = {
    "ladders": (build_ladders, run_ladders),
    "spectral": (build_spectral, run_spectral),
}


def first_kernel_calls() -> None:
    """The first LAPACK, BLAS and FFT calls of a process load and start them."""
    a = np.eye(64, dtype=complex) + 0.01
    np.linalg.eigh(a)
    np.linalg.svd(a)
    np.fft.fft(np.ones(64))
    a @ a
