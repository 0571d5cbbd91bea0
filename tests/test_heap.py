"""The run's malloc policy (report.keep_heap, report.release_heap): on glibc a
repeated pass faults in no fresh pages, and more than 64 MiB of free heap,
at its top or below live blocks, is still returned to the kernel; a glibc
without mallinfo2 (before 2.33) trims after every run; on any other C
library no mallopt is called."""

import ctypes
import os
import resource

import numpy as np
import pytest

from twistorcheck import report
from twistorcheck.report import SuiteConfig, report_to_json, run_suite


GLIBC = report._glibc()


def _dense_balanced():
    return SuiteConfig.from_dict({"metric": "eguchi_hanson", "suite": "balanced",
                                  "sample_count": 400})


@pytest.mark.skipif(not GLIBC, reason="the policy is set on glibc only")
def test_repeated_pass_faults_in_no_fresh_pages():
    # without the policy glibc trims the heap a pass frees, and the next
    # pass faults those pages back in: about 700-1850 minor faults a pass
    cfg = _dense_balanced()
    run_suite(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_suite(cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not (GLIBC and os.path.exists("/proc/self/statm")),
                    reason="the policy is set on glibc only; resident size read from /proc")
def test_heap_top_is_kept_up_to_64_mib_only():
    report.keep_heap()
    block = 8 << 20  # 8 MiB of doubles: below the mmap threshold, from the heap
    kept = [np.ones(block // 8) for _ in range(4)]
    del kept  # a 32 MiB heap top: kept, so allocating it again faults nothing
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    kept = [np.ones(block // 8) for _ in range(4)]
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500
    del kept
    rss = _rss_bytes()
    big = [np.ones(block // 8) for _ in range(12)]
    del big  # a 96 MiB heap top: returned
    assert _rss_bytes() - rss < 16 << 20


@pytest.mark.skipif(not (GLIBC and os.path.exists("/proc/self/statm")),
                    reason="the policy is set on glibc only; resident size read from /proc")
def test_free_heap_above_64_mib_is_returned_after_a_run():
    report.keep_heap()
    block = 8 << 20
    # 8 MiB holes between live 1 MiB blocks: 96 MiB free that trimming the
    # heap top cannot reach, as a large run leaves it
    pairs = [(np.ones(block // 8), np.ones((1 << 20) // 8)) for _ in range(12)]
    live = [small for _, small in pairs]
    del pairs
    rss = _rss_bytes()
    report.release_heap()
    assert rss - _rss_bytes() > 64 << 20
    del live


class FakeLibc:
    """Stands in for ctypes.CDLL: records every CDLL and mallopt call."""
    calls = []

    def __init__(self, name):
        self.calls.append(("CDLL", name))
        self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


def test_other_libc_gets_no_mallopt(monkeypatch):
    cfg = _dense_balanced()
    expected = report_to_json(run_suite(cfg))

    def no_such_name(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(FakeLibc, "calls", [])
    monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
    monkeypatch.setattr(os, "confstr", no_such_name)
    assert report_to_json(run_suite(cfg)) == expected
    assert FakeLibc.calls == []


@pytest.mark.skipif(not GLIBC, reason="the policy is set on glibc only")
def test_glibc_gets_both_mallopt_values(monkeypatch):
    monkeypatch.setattr(FakeLibc, "calls", [])
    monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
    report.keep_heap()
    assert FakeLibc.calls == [("CDLL", None), (-1, 64 << 20), (-3, 32 << 20)]


class OldGlibc(FakeLibc):
    """Stands in for ctypes.CDLL on a glibc older than 2.33, which has no
    mallinfo2: records every CDLL, mallopt and malloc_trim call."""

    def __init__(self, name):
        super().__init__(name)
        self.malloc_trim = lambda pad: self.calls.append(("malloc_trim", pad)) or 1


def test_glibc_without_mallinfo2_trims_after_every_run(monkeypatch):
    # without the trim a 10 000-point Burns verify keeps about 413 MB
    # resident after the run, against 39 MB with it (glibc 2.36, mallinfo2
    # hidden)
    cfg = SuiteConfig.from_dict({"metric": "flat", "suite": "completeness"})
    expected = report_to_json(run_suite(cfg))
    monkeypatch.setattr(OldGlibc, "calls", [])
    monkeypatch.setattr(ctypes, "CDLL", OldGlibc)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.31")
    for _ in range(2):
        assert report_to_json(run_suite(cfg)) == expected
    run = [("CDLL", None), (-1, 64 << 20), (-3, 32 << 20), ("CDLL", None), ("malloc_trim", 0)]
    assert OldGlibc.calls == run * 2
