"""Monte-Carlo soundness checks of the threshold hierarchy.

Draws random admissible states for a threshold kind, evaluates their
coherence, and counts violations of the reported threshold.  A sound
threshold admits no violations beyond the fixed slack; the closest approach
is reported as evidence that the admissible family actually crowds the
threshold rather than sitting far below it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .fock import FockPair, sdf_amplitude_raw
from .thresholds import ALPHA_BOUND, MAX_FOCK, XI_BOUND, ThresholdKind, threshold

#: samples counting as violations must exceed threshold by this slack
VIOLATION_SLACK = 1e-3

#: coherent-state energy scale floor for the classical sampler
_MIN_ENERGY_SCALE = 1.0

#: samples per amplitude evaluation; bounds the amplitude and coherence
#: memory of each worker, so a run holds at most workers x chunk of them
MC_CHUNK = 1 << 14

#: bins of the margin histogram between zero and the threshold
HISTOGRAM_BINS = 20


@dataclass(frozen=True)
class McReport:
    kind: ThresholdKind
    pair: FockPair
    samples: int
    seed: int
    max_observed: float
    threshold: float
    violations: int
    closest_approach: float
    margin_histogram: tuple[tuple[float, float, int], ...]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.name, "pair": [self.pair.m, self.pair.n],
            "samples": self.samples, "seed": self.seed,
            "max_observed": self.max_observed, "threshold": self.threshold,
            "violations": self.violations,
            "closest_approach": self.closest_approach,
            "margin_histogram": [
                {"lo": lo, "hi": hi, "count": c}
                for lo, hi, c in self.margin_histogram],
        }


def _sample_coherences(kind: ThresholdKind, pair: FockPair, samples: int,
                       seed: int, reduce) -> list:
    """``reduce`` of the coherences of random pure extreme points of the
    admissible family, one result per chunk of samples.

    The chunks hold at most ``MC_CHUNK`` samples of one Fock input each, so
    their list is a function of ``samples``, ``MC_CHUNK`` and the intrinsic
    samples per input (one multinomial draw).  Each chunk gets one child
    stream of ``SeedSequence(seed)`` and, on the worker thread that
    evaluates it, draws its own slice of the ``samples``-sized array of the
    three Gaussian parameters and, for the genuine kind, its own core states
    (``2 n`` values per sample), then reduces its coherences itself: no
    ``samples``-sized array of coherences is formed.  The chunks' results
    depend neither on the number of workers nor on their timing.
    """
    m, n = pair.m, pair.n
    seq = np.random.SeedSequence(seed)
    counts = (np.random.default_rng(seq).multinomial(samples, [1 / (MAX_FOCK + 1)] * (MAX_FOCK + 1))
              if kind == ThresholdKind.GAUSSIAN_INTRINSIC else [samples])
    # rows xi magnitude, xi phase, alpha magnitude. Samples-sized: with chunk-sized
    # arrays the kernel's temporaries stay on glibc's mmap path (ROADMAP, measured dead end)
    params = np.empty((3, samples))

    def evaluate(k, lo, hi, child):
        rng, sel = np.random.default_rng(child), slice(lo, hi)
        if kind == ThresholdKind.CLASSICAL:
            # exponential energy distribution concentrated near the optimum scale
            amag = rng.standard_exponential(out=params[2, sel])
            amag *= max(_MIN_ENERGY_SCALE, 0.5 * (m + n))
            r = th = 0.0
            np.sqrt(amag, out=amag)
        else:   # kinds are validated by the threshold lookup in mc_verify
            r, th, amag = (np.multiply(rng.random(out=row), bound, out=row) for row, bound
                           in zip(params[:, sel], (XI_BOUND, 2.0 * math.pi, ALPHA_BOUND)))
        if kind != ThresholdKind.GENUINE_N:
            am, an = sdf_amplitude_raw((m, n), k, r, th, amag, 0.0)
        else:
            # Haar-random core states on the complex d-sphere, drawn as real
            # and imaginary parts and normalized per sample
            u, v = sdf_amplitude_raw((m, n), range(n), r, th, amag, 0.0)
            c = rng.standard_normal((n, hi - lo)) + 1j * rng.standard_normal((n, hi - lo))
            c /= np.sqrt(np.sum(np.abs(c) ** 2, axis=0))
            am, an = np.sum(u * c, axis=0), np.sum(v * c, axis=0)
        return reduce(2.0 * np.abs(am * np.conj(an)))

    ends = np.cumsum(counts).tolist()
    chunks = [(k, lo, min(lo + MC_CHUNK, end))
              for k, (start, end) in enumerate(zip([0] + ends, ends))
              for lo in range(start, end, MC_CHUNK)]
    return _run_chunks(evaluate, [chunk + (child,) for chunk, child
                                  in zip(chunks, seq.spawn(len(chunks)))])


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(evaluate, chunks: list) -> list:
    """``evaluate(*chunk)`` of every chunk, in chunk order, computed on one
    thread per usable core.

    The calling thread is one of the workers: one worker (or one chunk) is
    the plain loop and starts no thread, and only the extra threads keep
    freed chunk memory in malloc arenas of their own.  Each chunk's result
    goes to its own slot and numpy releases the GIL inside the kernel, so the
    threads overlap and the results do not depend on their number.  A
    worker's exception stops the others after their current chunk and is
    raised once every thread has ended.
    """
    pending, lock, errors = iter(enumerate(chunks)), threading.Lock(), []
    results = [None] * len(chunks)

    def work() -> None:
        while not errors:
            with lock:
                i, chunk = next(pending, (None, None))
            if chunk is None:
                return
            try:
                results[i] = evaluate(*chunk)
            except BaseException as exc:
                errors.append(exc)

    helpers = [threading.Thread(target=work)
               for _ in range(min(len(chunks), _usable_cores()) - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return results


def mc_verify(kind: ThresholdKind, pair: FockPair, samples: int,
              seed: int) -> McReport:
    """Sample the admissible family and count threshold violations.

    Deterministic in ``(kind, pair, samples, seed)``: the same call returns a
    bit-identical report on any number of workers, since every chunk of
    samples draws from its own child stream of ``SeedSequence(seed)``.  The
    chunks follow ``MC_CHUNK``, so changing it changes every seeded report.
    The intrinsic sampler and threshold both range over Fock inputs up to
    ``MAX_FOCK``.
    """
    if samples < 1000:
        raise ValueError("need at least 1e3 samples for a meaningful report")
    thr = threshold(kind, pair).value
    edges = np.linspace(0.0, thr, HISTOGRAM_BINS + 1)

    def reduce(coh: np.ndarray) -> tuple:
        # a chunk's largest coherence, closest approach, violations and margin histogram
        margins = thr - coh
        return (coh.max(), margins.min(), int(np.count_nonzero(coh > thr + VIOLATION_SLACK)),
                np.histogram(np.clip(margins, 0.0, thr), bins=edges)[0])

    highs, lows, over, counts = zip(*_sample_coherences(kind, pair, samples, seed, reduce))
    counts = np.sum(counts, axis=0)
    hist = tuple((float(edges[i]), float(edges[i + 1]), int(counts[i]))
                 for i in range(HISTOGRAM_BINS))
    return McReport(kind=kind, pair=pair, samples=samples, seed=seed,
                    max_observed=float(np.max(highs)), threshold=thr,
                    violations=sum(over), closest_approach=float(np.min(lows)),
                    margin_histogram=hist)
