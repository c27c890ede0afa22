"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl [...] --against NEW.jsonl [...]

Both sides are result files written by suite.py. For every workload and
end-to-end metric it prints each side's median and quartiles and the delta
of the medians as a share of the base median. A change worse than the
metric's bound in BENCHMARK.json is flagged WORSE, a gain beyond it BETTER.
Where either side's run-to-run spread (quartile distance over the median)
exceeds the bound, the verdict is "unresolved", unless every new run reads
better than every base run. Exits 1 when anything is WORSE.
"""

from __future__ import annotations

import argparse
import sys

from results import load_records, load_spec, summary, values


def verdict(base: list, new: list, bound: float, higher_is_better: bool) -> tuple:
    b, n = summary(base), summary(new)
    sign = 1.0 if higher_is_better else -1.0
    delta = (n["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
    gain = sign * delta
    if higher_is_better:
        all_better = min(new) > max(base)
    else:
        all_better = max(new) < min(base)
    if max(b["spread"], n["spread"]) > bound and not all_better:
        return delta, "unresolved"
    if gain < -bound:
        return delta, "WORSE"
    if gain > bound:
        return delta, "BETTER"
    return delta, "same"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", nargs="+")
    p.add_argument("--against", nargs="+", required=True)
    args = p.parse_args(argv)
    spec = load_spec()
    base, new = load_records(args.base), load_records(args.against)

    worse = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            xb = values(base, w["name"], m["name"])
            xn = values(new, w["name"], m["name"])
            if not xb or not xn:
                continue
            delta, flag = verdict(xb, xn, m["bound"], m["better"] == "higher")
            worse += flag == "WORSE"
            sb, sn = summary(xb), summary(xn)
            print(f"{w['name']:9s} {m['name']:20s} "
                  f"base {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] n={sb['n']}  "
                  f"new {sn['median']:.6g} [{sn['q1']:.6g}, {sn['q3']:.6g}] n={sn['n']}  "
                  f"delta {delta:+.2%} (bound {m['bound']:.0%})  {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
