"""Monte-Carlo soundness checks of the threshold hierarchy.

Draws random admissible states for a threshold kind, evaluates their
coherence, and counts violations of the reported threshold.  A sound
threshold admits no violations beyond the fixed slack; the closest approach
is reported as evidence that the admissible family actually crowds the
threshold rather than sitting far below it.
"""

from __future__ import annotations

import math
import numbers
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

#: samples per chunk and kernel call (``MC_CHUNK // 11`` draws for intrinsic
#: and genuine); a run holds at most workers x chunk amplitudes and coherences
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
    admissible family, one result per chunk.

    A draw is one Gaussian ``(|xi|, arg xi, |alpha|)``.  Intrinsic applies it
    to every Fock input ``0..MAX_FOCK`` in one kernel block, genuine to
    ``MAX_FOCK + 1`` Haar-random core states that the chunk draws after its
    parameters; classical and gaussian-min take one sample per draw.  A chunk
    holds at most ``MC_CHUNK`` samples, gets one child stream of
    ``SeedSequence(seed)`` and, on the worker thread that evaluates it, draws
    its own slice of the draws-sized parameter array and reduces its
    coherences itself (a draw's samples in input order, the last draw cut so
    that exactly ``samples`` are reduced): no ``samples``-sized array of
    coherences is formed.  The results depend neither on the number of
    workers nor on their timing.
    """
    m, n = pair.m, pair.n
    per = MAX_FOCK + 1 if kind in (ThresholdKind.GAUSSIAN_INTRINSIC, ThresholdKind.GENUINE_N) else 1
    draws, step = -(-samples // per), MC_CHUNK // per
    # rows xi magnitude, xi phase, alpha magnitude. Draws-sized: with chunk-sized
    # arrays the kernel's temporaries stay on glibc's mmap path (ROADMAP, measured dead end)
    params = np.empty((3, draws))

    def evaluate(lo, hi, child):
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
            am, an = sdf_amplitude_raw((m, n), range(per) if per > 1 else 0, r, th, amag, 0.0)
        else:
            # Haar-random core states on the complex n-sphere, MAX_FOCK + 1 per
            # draw, drawn as real and imaginary parts and normalized per state
            u, v = sdf_amplitude_raw((m, n), range(n), r, th, amag, 0.0)
            c = rng.standard_normal((n, per, hi - lo)) + 1j * rng.standard_normal((n, per, hi - lo))
            c /= np.sqrt(np.sum(np.abs(c) ** 2, axis=0))
            am, an = np.sum(u[:, None] * c, axis=0), np.sum(v[:, None] * c, axis=0)
        return reduce((2.0 * np.abs(am * np.conj(an))).T.reshape(-1)[:samples - lo * per])

    los = range(0, draws, step)
    return _run_chunks(evaluate, [(lo, min(lo + step, draws), child) for lo, child
                                  in zip(los, np.random.SeedSequence(seed).spawn(len(los)))])


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
    bit-identical report on any number of workers, since every chunk draws
    from its own child stream of ``SeedSequence(seed)``.  The chunks follow
    ``MC_CHUNK``, so changing it changes every seeded report.  The intrinsic
    sampler and threshold both range over Fock inputs up to ``MAX_FOCK``, and
    one Gaussian draw serves all of them (genuine: as many core states).
    ``samples`` and ``seed`` are non-negative integers, never bools.
    """
    for name, value in (("samples", samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
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
