import types

import pytest

import spans
import worker


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_nested_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    tree = [
        ["root", 0.0, 10.0, None, None, 0],
        ["a", 1.0, 4.0, 0, None, 0],
        ["a1", 2.0, 3.0, 1, None, 0],
        ["b", 5.0, 9.0, 0, None, 0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_parents_and_sums():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    outer = tr.begin("outer")
    clock.now = 1.0
    inner = tr.begin("inner", points=7)
    clock.now = 3.0
    tr.end(inner)
    clock.now = 4.0
    tr.end(outer)
    s = spans.summarize(tr)
    assert s["outer.total_s"] == 4.0 and s["outer.self_s"] == 2.0
    assert s["inner.self_s"] == 2.0 and s["inner.points"] == 7
    with pytest.raises(RuntimeError):
        a = tr.begin("a")
        tr.begin("b")
        tr.end(a)


def test_kernel_self_time_excludes_nested_kernels():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    t_outer = tr.kernel_enter()      # an elementary function ...
    clock.now = 1.0
    t_inner = tr.kernel_enter()      # ... calling multiply
    clock.now = 1.5
    tr.kernel_exit("jets.multiply", t_inner, nbytes=64)
    clock.now = 2.0
    tr.kernel_exit("jets.elementary", t_outer)
    s = spans.summarize(tr)
    assert s["jets.multiply.self_s"] == 0.5 and s["jets.multiply.bytes"] == 64
    assert s["jets.elementary.total_s"] == 2.0 and s["jets.elementary.self_s"] == 1.5


def test_install_names_every_missing_target():
    pkg = types.SimpleNamespace(jets=types.ModuleType("jets"))
    with pytest.raises(LookupError) as exc:
        spans.install(spans.Tracer(), pkg)
    msg = str(exc.value)
    assert "module report" in msg and "jets.JetSpace.multiply" in msg


def test_install_resolves_every_target_of_the_package():
    pkg, _ = worker.import_package()
    orig_beta = pkg.kahler.beta_form
    tr = spans.Tracer()
    spans.install(tr, pkg)  # raises if any target is missing
    mods = {m: getattr(pkg, m) for m in spans.MODULES}
    for mod_name, path, *_ in spans.SPAN_TARGETS + spans.KERNEL_TARGETS:
        _, _, value = spans._resolve(mods[mod_name], path)
        assert hasattr(value, "__wrapped__"), f"{mod_name}.{path} not wrapped"
    assert all(hasattr(fn, "__wrapped__") for fn in pkg.report._SUITE_RUNNERS.values())
    # a name imported into another module is wrapped there too
    for mod in mods.values():
        assert vars(mod).get("beta_form") is not orig_beta
    space = pkg.jets.get_space(2, 2)
    space.multiply(space.zero_coeffs(), space.zero_coeffs())
    assert spans.summarize(tr)["jets.multiply.calls"] == 1
