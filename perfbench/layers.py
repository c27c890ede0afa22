"""Per-layer metrics of a traced run, named `<module>.<function>[.<param>].<stat>`.

`s` is self time in seconds per pass, except for `scenarios.<name>.s` and
`cli.main.s`, which are a scenario's or the command's whole time (the
ROADMAP's L2 and L3 figures). `calls`, `rows` and `evals` are exact counts
per pass, `reuse` is distinct inputs divided by calls, and `err` or `gap`
is the accuracy figure the oracle checks recorded next to the timing.
`<module>.self_s` is a module's summed self time per pass.
`trace.wall_s` is the traced pass measured as the untraced `wall_s` is, in
reference seconds, so that the two give the tracing overhead;
`trace.untraced_s` is the operations' time per pass outside every library
span (the benchmark's own oracles).
"""

from __future__ import annotations

from tracing import MODULES

# the registry's scenarios each workload runs through the command line;
# orthonormal-translates is left out: its cost is two pphi calls on the
# unit indicator at K = 10^4, which the spectral K sweep already times
LADDER_SCENARIOS = ("diana", "stoeva", "interleaved-chi", "s-not-closed",
                    "ordering-sensitivity")
SPECTRAL_SCENARIOS = ("plateau-exp", "lower-translates")
SCENARIOS = LADDER_SCENARIOS + SPECTRAL_SCENARIOS
DUAL_COUNTS = (256, 512, 1024, 2048)
ROUTE_COUNTS = (256, 512, 1024)
PPHI_PROFILES = ("unit-indicator", "hat")
PPHI_TAILS = (10, 100, 1000, 10000)
A2_DEPTH = 14
A2_WEIGHTS = ("plateau-k6p2", "plateau-k8p1", "plateau-k8p1-cand", "constant",
              "power", "sampled")

# self-time and call-count spans: metric prefix -> span name
TIMED_WITH_CALLS = {
    "core.instantiate": "core.instantiate",
    "families.generator": "families.generator",
    **{f"operators.{f}": f"operators.{f}" for f in (
        "frame_matrix", "permutation_gap", "s_apply", "reconstruct",
        "w_membership", "projector_for")},
}
TIMED = {
    "operators.lower_bound.s": "operators.lower_bound",
    "translates.pairwise_sum.s": "core.pairwise_sum",
    **{f"translates.{f}.s": f"translates.{f}" for f in (
        "classify_translates", "canonical_dual_translates",
        "reconstruct_translates", "walnut_apply", "brute_apply")},
    **{f"exponentials.{f}.s": f"exponentials.{f}" for f in (
        "reconstruct_exponentials", "t_general", "classify_exponentials")},
    "report.write_report_json.s": "report.write_report_json",
}
ACCURACY = ("operators.dual_route_gap", "operators.lower_bound.err",
            "operators.parseval_gap", "operators.reconstruct.err",
            "translates.reconstruct.err", "translates.fold_route_gap",
            "exponentials.reconstruct.err", "exponentials.biorthogonality_gap")


def layer_metrics(tracer, ledger, passes, wall_s, reports, one_thread_s) -> dict:
    spans = tracer.by_name()

    def self_s(name, tag=None):
        return spans.get((name, tag), (0.0, 0.0, 0))[0] / passes

    def whole_s(name, tag=None):
        return spans.get((name, tag), (0.0, 0.0, 0))[1] / passes

    def calls(name):
        return spans.get((name, None), (0.0, 0.0, 0))[2] / passes

    def reuse(name):
        n = spans.get((name, None), (0.0, 0.0, 0))[2]
        return len(tracer.inputs.get(name, ())) / n if n else 0.0

    m = {}
    for prefix, span in TIMED_WITH_CALLS.items():
        m[f"{prefix}.s"] = self_s(span)
        m[f"{prefix}.calls"] = calls(span)
    m["core.instantiate.rows"] = tracer.counts["core.instantiate.rows"] / passes
    m["core.instantiate.reuse"] = reuse("core.instantiate")
    for fn, counts in (("canonical_dual", DUAL_COUNTS),
                       ("dual_via_pseudoinverse", ROUTE_COUNTS),
                       ("parseval_canonical", ROUTE_COUNTS)):
        for n in counts:
            m[f"operators.{fn}.N{n}.s"] = self_s(f"operators.{fn}", f"N{n}")
    m["operators.canonical_dual.N1024.1thread.s"] = one_thread_s
    for name, span in TIMED.items():
        m[name] = self_s(span)
    for name in ACCURACY:
        m[name] = ledger.errors.get(name, 0.0)
    for prof in PPHI_PROFILES:
        for k in PPHI_TAILS:
            key = f"translates.pphi.{prof}.K{k}"
            m[f"{key}.s"] = self_s("translates.pphi", f"{prof}.K{k}")
            m[f"{key}.err"] = ledger.errors.get(f"{key}.err", 0.0)
    m["translates.profile_evals"] = tracer.counts["translates.profile_evals"] / passes
    m["translates.pphi.calls"] = calls("translates.pphi")
    m["translates.pphi.reuse"] = reuse("translates.pphi")
    for w in A2_WEIGHTS:
        m[f"muckenhoupt.a2_estimate.{w}.s"] = self_s("muckenhoupt.a2_estimate", w)
    m["muckenhoupt.average_power.calls"] = (
        tracer.counts["muckenhoupt.average_power.calls"] / passes)
    for name in SCENARIOS:
        m[f"scenarios.{name}.s"] = whole_s(f"scenarios.{name}")
    m["report.bytes"] = sum(map(len, reports[0].values())) if reports else 0
    m["cli.main.s"] = whole_s("cli.main")
    for mod, total in tracer.module_self().items():
        m[f"{mod}.self_s"] = total / passes
    m["trace.wall_s"] = wall_s
    ops_s = sum(map(sum, ledger.seconds.values()))
    m["trace.untraced_s"] = (ops_s - tracer.top_level_seconds()) / passes
    m["trace.spans"] = len(tracer.spans) / passes
    return m


def module_table(metrics: dict) -> list:
    """(module, self seconds, share of the traced operations' time) rows,
    largest first; `(benchmark)` is the time outside every library span."""
    rows = [(mod, metrics[f"{mod}.self_s"]) for mod in MODULES]
    rows.append(("(benchmark)", metrics["trace.untraced_s"]))
    wall = sum(s for _, s in rows)
    rows.sort(key=lambda r: -r[1])
    return [(mod, s, s / wall if wall else 0.0) for mod, s in rows]
