"""Spans and counts recorded from outside the library.

The Tracer replaces public functions of semiframe by wrappers, at every
module attribute that holds them, so a call is seen under whatever name its
caller imported it by (`semiframe.operators.instantiate`,
`semiframe.scenarios.canonical_dual`, ...). Each wrapper records a span:
name, tag, start, end, parent span and run id. Span names are
`<module>.<function>`. A tag names the call's parameter (a ladder level, a
profile and tail, a weight); `pphi` is tagged only where the benchmark calls
it directly, because `classify_translates` and `reconstruct_translates` call
it inside with tails of their own. Member rules of vector families, Fourier profiles and
weight averages are wrapped where they are created or defined. Spans stay
in memory until `dump` writes them out.

A span's self time is its length minus the time covered by its children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("core", "families", "operators", "translates", "exponentials",
           "muckenhoupt", "scenarios", "report", "cli")


def _level_tag(family, level, *args, **kwargs):
    d, n = level
    return f"N{n}" if d == n + 1 else None      # shared-direction ladder levels


def _pphi_tag(system, m=None, tail_terms=None, *args, **kwargs):
    if system.profile.support is not None:
        return system.profile.name
    return f"{system.profile.name}.K{tail_terms}"


def _a2_tag(weight, candidates=None, *args, **kwargs):
    desc = getattr(weight, "descriptor", {})
    kind = desc.get("kind", "weight")
    if kind == "plateau":
        kind = f"plateau-k{desc['k_max']}p{desc['power']}"
    return kind + ("-cand" if candidates else "")


def _level_key(family, level, *args, **kwargs):
    return (family.name, tuple(level))


def _pphi_key(system, m=None, tail_terms=None, *args, **kwargs):
    return (system.name, m, tail_terms)


# module -> public functions wrapped as spans (name -> tag function)
TRACED = {
    "core": {"instantiate": None, "tail_diagnostic": None, "periodize": None,
             "pairwise_sum": None},
    "families": {"interleaved_prefix_norms": None},
    "operators": {
        "analysis": None, "analysis_matrix": None, "synthesis_matrix": None,
        "adjoint_gap": None, "frame_matrix": None, "permutation_gap": None,
        "frame_action": None, "synthesis": None, "s_apply": None,
        "projector_for": None, "lower_bound": None,
        "canonical_dual": _level_tag, "dual_via_pseudoinverse": _level_tag,
        "parseval_canonical": _level_tag, "reconstruct": None,
        "w_membership": None},
    "translates": {
        "pphi": _pphi_tag, "bracket": None, "analysis_translates": None,
        "walnut_apply": None, "brute_apply": None,
        "canonical_dual_translates": None, "reconstruct_translates": None,
        "classify_translates": None},
    "exponentials": {
        "analysis_exponentials": None, "synthesis_exponentials": None,
        "reconstruct_exponentials": None, "biorthogonality_gap": None,
        "t_mult": None, "t_general": None, "classify_exponentials": None},
    "muckenhoupt": {"a2_estimate": _a2_tag},
    "report": {"write_registry_json": None, "write_report_json": None},
    "cli": {"main": None},
}

# input identity per function, for the distinct-inputs / calls ratio
KEYS = {"core.instantiate": _level_key, "translates.pphi": _pphi_key}

# spans tagged only when no library span encloses them
DIRECT_TAGS = {"translates.pphi"}

WEIGHT_CLASSES = ("ConstantWeight", "PowerWeight", "PiecewiseWeight",
                  "SampledWeight", "ScaledWeight")


class Tracer:
    def __init__(self):
        self.run_id = "setup"        # the measuring loop names each pass
        self.spans = []        # [name, tag, start, end, parent index, run id]
        self.counts = Counter()
        self.inputs = defaultdict(set)
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, tag=None, key=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        direct = name in DIRECT_TAGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tagged = tag and not (direct and stack)
            rec = [name, tag(*args, **kwargs) if tagged else None, clock(), None,
                   stack[-1] if stack else -1, self.run_id]
            if key is not None:
                self.inputs[name].add(key(*args, **kwargs))
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def count_rows(self, fn):
        @functools.wraps(fn)
        def counted(family, level, *args, **kwargs):
            self.counts["core.instantiate.rows"] += int(level[1])
            return fn(family, level, *args, **kwargs)
        return counted

    def count_evals(self, fn):
        def counted(gamma):
            self.counts["translates.profile_evals"] += getattr(gamma, "size", 1)
            return fn(gamma)
        return counted

    def count_calls(self, fn, counter: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at every semiframe attribute holding it."""
        mods = {n: sys.modules[f"semiframe.{n}"] for n in MODULES}
        every = [m for n, m in sys.modules.items()
                 if n == "semiframe" or n.startswith("semiframe.")]
        for mod_name, funcs in TRACED.items():
            for fn_name, tag in funcs.items():
                original = getattr(mods[mod_name], fn_name)
                span = f"{mod_name}.{fn_name}"
                wrapped = self.wrap(original, span, tag, KEYS.get(span))
                if span == "core.instantiate":
                    wrapped = self.count_rows(wrapped)
                for mod in every:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)

        table = mods["scenarios"].SCENARIOS
        for name, fn in list(table.items()):
            self._restore.append((table, name, fn))
            table[name] = self.wrap(fn, f"scenarios.{name}")

        family_cls = mods["core"].VectorFamily
        original_init = family_cls.__post_init__
        tracer = self

        def family_init(family):
            original_init(family)
            family.generator = tracer.wrap(family.generator, "families.generator")
            if family.sparse is not None:
                family.sparse = tracer.wrap(family.sparse, "families.generator")
        self._set(family_cls, "__post_init__", family_init)

        profile_cls = mods["translates"].FourierProfile
        original_profile_init = profile_cls.__post_init__

        def profile_init(profile):
            original_profile_init(profile)
            profile.fn = tracer.count_evals(profile.fn)
        self._set(profile_cls, "__post_init__", profile_init)

        for cls_name in WEIGHT_CLASSES:
            cls = getattr(mods["muckenhoupt"], cls_name)
            self._set(cls, "average_power", self.count_calls(
                cls.average_power, "muckenhoupt.average_power.calls"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.inputs.clear()

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict:
        """(name, tag) and (name, None) -> [self seconds, inclusive seconds, calls]."""
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, tag, start, end, _, _), own in zip(self.spans, self.self_times()):
            keys = [(name, None)] + ([(name, tag)] if tag is not None else [])
            for k in keys:
                acc = out[k]
                acc[0] += own
                acc[1] += end - start
                acc[2] += 1
        return out

    def module_self(self) -> dict:
        out = dict.fromkeys(MODULES, 0.0)
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name.split(".", 1)[0]] += own
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, _, start, end, parent, _ in self.spans
                   if parent < 0)

    @classmethod
    def load(cls, path) -> "Tracer":
        """A tracer holding the spans `dump` wrote, for the derived figures."""
        tracer = cls()
        for line in Path(path).read_text().splitlines():
            s = json.loads(line)
            tracer.spans.append([s["name"], s["tag"], s["start"], s["end"],
                                 s["parent"], s["run"]])
        return tracer

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, tag, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "tag": tag,
                                     "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
