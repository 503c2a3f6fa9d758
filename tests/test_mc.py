import dataclasses
import threading

import numpy as np
import pytest

from qngcoh import mc
from qngcoh.fock import FockPair
from qngcoh.mc import mc_verify
from qngcoh.thresholds import ThresholdKind


def test_determinism_bit_identical():
    a = mc_verify(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 2), 5000, seed=42)
    b = mc_verify(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 2), 5000, seed=42)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    c = mc_verify(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 2), 5000, seed=43)
    assert c.max_observed != a.max_observed


def test_classical_01_sound_and_tight():
    report = mc_verify(ThresholdKind.CLASSICAL, FockPair(0, 1), 20000, seed=7)
    assert report.violations == 0
    assert abs(report.max_observed - 0.8578) < 0.02
    assert report.closest_approach > 0.0


def test_gaussian_min_01_bounded():
    # the paper's 0.93 is the rounded threshold 0.933815, which bounds every
    # sample with no slack: a sharper bound than the report's violation count
    report = mc_verify(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 1), 1000, seed=3)
    assert report.threshold == pytest.approx(0.933815, abs=1e-6)
    assert report.max_observed <= 0.933815
    assert report.violations == 0


def test_gaussian_min_38_sound():
    # gaussian-min is intrinsic's vacuum input, whose search grows its box to
    # |alpha| <= 6 and reaches 0.262306; a search of its own stopped at 0.197151
    # and 105 of these samples lay above it
    report = mc_verify(ThresholdKind.GAUSSIAN_MIN, FockPair(3, 8), 100_000, seed=7)
    assert report.violations == 0


def test_intrinsic_67_sound():
    # with the squeeze phase searched on [0, pi] the nine grid nodes of that
    # axis are distinct, and input 6 reaches 0.784583; on [0, 2 pi] the
    # search stopped at 0.676957 (input 5) and 13 of these samples lay above it
    report = mc_verify(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(6, 7), 100_000, seed=7)
    assert report.violations == 0


def test_genuine_02_sound_small():
    report = mc_verify(ThresholdKind.GENUINE_N, FockPair(0, 2), 20000, seed=7)
    assert report.violations == 0
    assert report.threshold == pytest.approx(0.86, abs=0.01)
    assert report.max_observed <= report.threshold + 1e-3


def test_intrinsic_sampler_covers_fock_levels():
    report = mc_verify(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(0, 2),
                       5000, seed=11)
    assert report.violations == 0
    # intrinsic family includes the vacuum-based states, so it should get
    # reasonably close to the (0,2) threshold of ~0.707
    assert report.max_observed > 0.5


def test_histogram_counts_total():
    for kind in ThresholdKind:
        report = mc_verify(kind, FockPair(0, 2), 4000, seed=5)
        assert sum(c for _, _, c in report.margin_histogram) == 4000, kind
        los = [lo for lo, _, _ in report.margin_histogram]
        assert los == sorted(los)


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP Still broken 4")
@pytest.mark.parametrize("pair", [(9, 10), (5, 10)], ids=["9,10", "5,10"])
def test_intrinsic_sound_where_the_search_misses(pair):
    # the search misses an intrinsic optimum inside the MC box on both pairs
    report = mc_verify(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(*pair), 1_000_000, seed=7)
    assert report.violations == 0


def test_intrinsic_chunks_cover_every_sample_once(monkeypatch):
    # the chunks hold one Fock input each, at most MC_CHUNK samples, and
    # together cover the samples-sized arrays once, each with its own stream
    run, seen = mc._run_chunks, []

    def recording_run(evaluate, chunks):
        seen.extend(chunks)
        return run(evaluate, chunks)

    monkeypatch.setattr(mc, "_run_chunks", recording_run)
    mc_verify(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(1, 3), 200_000, seed=5)
    assert [lo for _, lo, _, _ in seen] == [0] + [hi for _, _, hi, _ in seen[:-1]]
    assert seen[-1][2] == 200_000
    assert all(0 < hi - lo <= mc.MC_CHUNK for _, lo, hi, _ in seen)
    inputs = [k for k, _, _, _ in seen]
    assert inputs == sorted(inputs) and set(inputs) == set(range(mc.MAX_FOCK + 1))
    assert len({child.spawn_key for _, _, _, child in seen}) == len(seen)


def test_sample_floor():
    with pytest.raises(ValueError):
        mc_verify(ThresholdKind.CLASSICAL, FockPair(0, 1), 999, seed=1)


def test_threaded_chunks_match_serial(monkeypatch):
    # 5 chunks of 1024 samples (more for intrinsic's per-input groups): one
    # core runs the plain loop, two split the chunks with a second thread
    monkeypatch.setattr(mc, "MC_CHUNK", 1024)
    reports = {}
    for cores in (1, 2):
        monkeypatch.setattr(mc, "_usable_cores", lambda: cores)
        reports[cores] = [mc_verify(kind, FockPair(*pair), 5000, seed=17).as_dict()
                          for pair in ((0, 2), (0, 3), (1, 3)) for kind in ThresholdKind]
    assert reports[1] == reports[2]
    # at the default chunk size: 1e5 intrinsic samples make 11 or more chunks
    monkeypatch.setattr(mc, "MC_CHUNK", 1 << 14)
    for cores in (1, 2):
        monkeypatch.setattr(mc, "_usable_cores", lambda: cores)
        reports[cores] = mc_verify(ThresholdKind.GAUSSIAN_INTRINSIC, FockPair(1, 3),
                                   100_000, seed=17).as_dict()
    assert reports[1] == reports[2]


def test_chunk_error_propagates(monkeypatch):
    kernel, calls, lock = mc.sdf_amplitude_raw, [], threading.Lock()

    def failing_kernel(*args):
        with lock:
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("kernel failed on its third call")
        return kernel(*args)

    monkeypatch.setattr(mc, "MC_CHUNK", 1024)
    monkeypatch.setattr(mc, "_usable_cores", lambda: 2)
    monkeypatch.setattr(mc, "sdf_amplitude_raw", failing_kernel)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="third call"):
        mc_verify(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 2), 40 * 1024, seed=1)
    assert threading.active_count() == before
    assert len(calls) < 40    # the workers stop instead of running every chunk


def test_nan_in_a_later_chunk_shows_in_the_report(monkeypatch):
    # the merge of the chunks' maxima and closest approaches keeps a NaN,
    # as the reduction over the whole sample does
    kernel, calls = mc.sdf_amplitude_raw, []

    def nan_on_third_call(*args):
        calls.append(None)
        return kernel(*args) * (np.nan if len(calls) == 3 else 1.0)

    monkeypatch.setattr(mc, "MC_CHUNK", 1024)
    monkeypatch.setattr(mc, "_usable_cores", lambda: 1)
    monkeypatch.setattr(mc, "sdf_amplitude_raw", nan_on_third_call)
    report = mc_verify(ThresholdKind.GAUSSIAN_MIN, FockPair(0, 2), 5000, seed=17)
    assert np.isnan(report.max_observed) and np.isnan(report.closest_approach)


def test_chunk_reductions_equal_the_whole_sample():
    # each worker reduces its own chunks; the merged report is the one the
    # whole array of coherences gives
    for kind in ThresholdKind:
        pair = FockPair(1, 3)
        report = mc_verify(kind, pair, 50_000, seed=9)
        coh = np.concatenate(mc._sample_coherences(kind, pair, 50_000, 9, lambda c: c))
        thr = report.threshold
        edges = np.linspace(0.0, thr, mc.HISTOGRAM_BINS + 1)
        counts, _ = np.histogram(np.clip(thr - coh, 0.0, thr), bins=edges)
        assert coh.size == 50_000
        assert report.max_observed == float(coh.max())
        assert report.closest_approach == float((thr - coh).min())
        assert report.violations == int(np.sum(coh > thr + mc.VIOLATION_SLACK))
        assert [c for _, _, c in report.margin_histogram] == counts.tolist()
