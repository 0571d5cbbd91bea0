"""Write pins/: the check ids, modes, verdicts and residuals of every report
the suite workloads produce, for every suite seed in workloads.CONFIG_SEEDS.

The committed pins come from the seed commit of this benchmark.  Rewrite
them only on purpose (a change meant to alter verdicts), since every run
checks its reports against them:

    python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    verify, dense = {}, {}
    for cs in workloads.CONFIG_SEEDS:
        seed = workloads.CONFIG_SEEDS.index(cs)
        assert workloads.config_seed(seed) == cs
        verify[str(cs)] = {spec["fixture"]: run.spawn(spec)["checks"]
                           for spec in workloads.verify_all_specs(seed, trace=False)}
        dense[str(cs)] = run.spawn(workloads.dense_spec(seed, 0.0, trace=False))["checks"]
        print(f"pinned suite seed {cs}", file=sys.stderr)
    (run.HERE / "pins").mkdir(exist_ok=True)
    for name, data in (("verify_all", verify), ("dense_balanced", dense)):
        with open(run.HERE / "pins" / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
