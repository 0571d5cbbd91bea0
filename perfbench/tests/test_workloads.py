import json
from pathlib import Path

import workloads


def test_suite_specs_repeat_for_a_seed():
    for seed in (0, 1, 17):
        assert workloads.verify_all_specs(seed, False) == workloads.verify_all_specs(seed, False)
        assert workloads.dense_spec(seed, 5.0, False) == workloads.dense_spec(seed, 5.0, False)
        assert workloads.config_seed(seed) in workloads.CONFIG_SEEDS
    assert workloads.config_seed(0) != workloads.config_seed(1)
    assert [s["fixture"] for s in workloads.verify_all_specs(0, False)] == list(workloads.FIXTURES)


def test_every_suite_seed_is_pinned():
    pins = Path(workloads.__file__).resolve().parent / "pins"
    for name in ("verify_all", "dense_balanced"):
        pinned = json.loads((pins / f"{name}.json").read_text())
        assert sorted(pinned) == sorted(str(s) for s in workloads.CONFIG_SEEDS)
