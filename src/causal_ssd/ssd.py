"""Evidence probabilities, optimal sample sizes, and intervention plans.

For an edge u - v with u manipulated, evidence at sample size n is decisive
for H0 when BF >= k0, decisive for H1 when BF <= 1/k1, inconclusive in
between, and misleading when decisive for the false hypothesis.  The overall
probability of decisive-and-correct evidence mixes the conditional
probabilities with the class-count orientation prior.  ``dce_curve`` builds
it over the whole sample-size grid from one edge draw, and the optimal n is
the first point where it reaches the target zeta; ``optimal_n_edge`` finds
that point with its own scan, in which one test, ``reaches_zeta``, skips a
point, stops its H1 sample early, or accepts it.  The best-size optimal
sequence of a component is its achieved plan with the smallest total n.

H0-side probabilities are exact (closed-form bands); H1-side ones are Monte
Carlo from one substream per edge (the n-free variates) and one per (edge,
n), so for a fixed master seed the whole curve, and therefore the returned
optimal n, is reproducible bit for bit.

``fork_map`` spreads independent tasks over forked processes: the edge tasks
of a plan, and the grid points of a full curve.  Every task owns its
substream, so no result depends on how many processes ran or which one ran
what.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from causal_ssd.design import optimal_sequences, prior_h0
from causal_ssd.graph import (
    CapacityError,
    NotDecomposableError,
    PartiallyDirectedGraph,
    chain_components,
    enumerate_class,  # noqa: F401  (no caller; bench/tracing.py wraps ssd.enumerate_class)
)
from causal_ssd.numerics import RandomStream, instance, whole
from causal_ssd.predictive import (
    H1_BUDGET_BYTES,
    H1_BYTES_PER_DRAW,
    MAX_DRAWS,
    BfPredictiveSample,
    DatasetMatrix,
    DesignPosterior,
    H1EdgeDraw,
    InsufficientDataError,
    InterventionDensity,
    MissingColumnsError,
    build_design_posterior,
    draw_h1_edge,
    pair_factor,
    prob_bf_band_h0,
    sample_bf_h1,
)

@dataclass(frozen=True)
class DceThresholds:
    """Bayes-factor thresholds and target probability of decisive correct evidence."""

    k0: float = 6.0
    k1: float = 6.0
    zeta: float = 0.8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k0) and self.k0 > 1.0):
            raise ValueError(f"k0 must exceed 1, got {self.k0!r}")
        if not (math.isfinite(self.k1) and self.k1 > 1.0):
            raise ValueError(f"k1 must exceed 1, got {self.k1!r}")
        if not (0.0 < self.zeta < 1.0):
            raise ValueError(f"zeta must lie in (0, 1), got {self.zeta!r}")
        # k0 > 1 > 1/k1 already guarantees a nonempty inconclusive band


@dataclass(frozen=True)
class RunConfig:
    """The run parameters that every sample size depends on, checked once.

    ``draws`` is the number of H1 predictive draws per grid point, an
    integer from 1 to ``predictive.MAX_DRAWS``, the most the H1 sampler's
    memory budget holds; ``n_max`` is the top of the sample-size grid
    {2, ..., n_max}, an integer of at least 2 (``numerics.whole``: a bool or
    a float is not an integer).  ``f_u`` is the intervention density, an
    ``InterventionDensity`` (else ``TypeError``), and ``a_omega`` the prior
    degrees of freedom of the design posterior: None for T - 1 per chain
    component, or a finite number, which a bool is not.
    """

    draws: int = 10_000
    n_max: int = 1000
    f_u: InterventionDensity = InterventionDensity()
    a_omega: float | None = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "draws", whole("draws", self.draws, 1, MAX_DRAWS))
        except ValueError as exc:  # say where the upper bound comes from
            raise ValueError(f"{exc}: the H1 sampler holds {H1_BYTES_PER_DRAW} bytes a draw, "
                             f"and its budget is {H1_BUDGET_BYTES} bytes") from None
        object.__setattr__(self, "n_max", whole("n_max", self.n_max, 2))
        instance("f_u", self.f_u, InterventionDensity)
        if isinstance(self.a_omega, bool):
            raise ValueError(f"a_omega must be a number, not a bool, got {self.a_omega!r}")
        if self.a_omega is not None and not math.isfinite(self.a_omega):
            raise ValueError(f"a_omega must be finite, got {self.a_omega!r}")


# the memo of h0_band_probabilities: the (p0_dc, p0_mis) of at most this many
# (k0, k1, n), about 290 bytes each, the least recently used dropped first
H0_BAND_POINTS = 2**14


@functools.lru_cache(maxsize=H0_BAND_POINTS)
def _h0_bands(k0: float, k1: float, n: int) -> tuple[float, float]:
    """P(BF >= k0 | H0) and P(BF <= 1/k1 | H0) at n, exact."""
    return prob_bf_band_h0(k0, math.inf, n), prob_bf_band_h0(0.0, 1.0 / k1, n)


def h0_band_probabilities(thresholds: DceThresholds, n: int) -> tuple[float, float, float]:
    """Exact (decisive, inconclusive, misleading) probabilities under H0.

    They depend on k0, k1 and n alone, not on zeta, so they are memoized per
    (k0, k1, n), for the ``H0_BAND_POINTS`` most recently used: every edge of
    a plan scans the same n and reuses the bands, and so does every zeta of a
    sweep.
    """
    p0_dc, p0_mis = _h0_bands(thresholds.k0, thresholds.k1, n)
    return p0_dc, 1.0 - p0_dc - p0_mis, p0_mis


def decisive_h1_count(values: np.ndarray, thresholds: DceThresholds) -> int:
    """The H1 Bayes factors in ``values`` decisive and correct: at or below 1/k1."""
    return int(np.count_nonzero(values <= 1.0 / thresholds.k1))


def h1_band_counts(sample: BfPredictiveSample, thresholds: DceThresholds) -> tuple[int, int]:
    """The H1 draws decisive and correct (at or below 1/k1) and misleading (at or above k0)."""
    draws = sample.draws
    return decisive_h1_count(draws, thresholds), int(np.count_nonzero(draws >= thresholds.k0))


def binomial_se(p: float, draws: int) -> float:
    """Standard error of a proportion ``p`` estimated from ``draws`` draws."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / draws)


def _overall_dc(p_h0: float, p0_dc: float, p1_dc: float) -> float:
    """The prior-weighted mixture of the two decisive-and-correct probabilities."""
    return p_h0 * p0_dc + (1.0 - p_h0) * p1_dc


def reaches_zeta(
    thresholds: DceThresholds, p_h0: float, p0_dc: float, hits: int, draws: int
) -> bool:
    """Whether ``hits`` decisive and correct H1 draws of ``draws`` give
    overall_dc >= zeta, as ``assemble_dce`` computes it.

    The mixture never decreases as ``hits`` grows (a correctly rounded
    division, a product with the nonnegative 1 - p_h0 and a sum are each
    monotone), so the test fails exactly below the fewest hits that reach it.
    """
    return _overall_dc(p_h0, p0_dc, hits / draws) >= thresholds.zeta


def assemble_dce(
    h0_bands: tuple[float, float, float],
    p_h0: float,
    h1_counts: tuple[int, int],
    draws: int,
) -> dict:
    """Mix the exact H0 triple with the H1 triple of ``h1_counts`` of ``draws``.

    ``h1_counts`` are the ``h1_band_counts`` of an H1 sample of ``draws``
    draws; ``p_h0`` is the edge's prior p(H0) and p(H1) = 1 - p_h0.  The
    result is the ``dce_at_n_star`` mapping of ``plan.json``: the
    decisive / inconclusive / misleading probabilities under H0 (``p0_dc``,
    ``p0_inc``, ``p0_mis``, exact, summing to one by construction) and under
    H1 (``p1_*``, Monte Carlo), their prior-weighted decisive-and-correct
    mixture ``overall_dc``, and in ``mc_se`` the binomial standard errors of
    ``p1_dc``, ``p1_inc``, ``p1_mis`` and ``overall_dc``.
    """
    p0_dc, p0_inc, p0_mis = h0_bands
    p1_dc, p1_mis = h1_counts[0] / draws, h1_counts[1] / draws
    p1_inc = 1.0 - p1_dc - p1_mis
    se_dc = binomial_se(p1_dc, draws)
    return {
        "p0_dc": p0_dc,
        "p0_inc": p0_inc,
        "p0_mis": p0_mis,
        "p1_dc": p1_dc,
        "p1_inc": p1_inc,
        "p1_mis": p1_mis,
        "overall_dc": _overall_dc(p_h0, p0_dc, p1_dc),
        "mc_se": {
            "p1_dc": se_dc,
            "p1_inc": binomial_se(p1_inc, draws),
            "p1_mis": binomial_se(p1_mis, draws),
            "overall_dc": (1.0 - p_h0) * se_dc,
        },
    }


def h1_process_cap(draws: int) -> int:
    """The most processes whose H1 evaluations of ``draws`` draws fit
    together in ``H1_BUDGET_BYTES``, and at least one."""
    return max(1, H1_BUDGET_BYTES // (draws * H1_BYTES_PER_DRAW))


DCE_CURVE_COLUMNS = ("n", "p0_dc", "p1_dc", "overall_dc", "se_overall")


def dce_curve_row(n: int, dce: dict) -> tuple:
    """The ``DCE_CURVE_COLUMNS`` of the ``assemble_dce`` mapping at n."""
    return (n, dce["p0_dc"], dce["p1_dc"], dce["overall_dc"], dce["mc_se"]["overall_dc"])


def _check_p_h0(p_h0: float) -> None:
    if isinstance(p_h0, bool):
        raise ValueError(f"p_h0 must be a number, not a bool, got {p_h0!r}")
    if not 0.0 <= p_h0 <= 1.0:
        raise ValueError(f"p_h0 must lie in [0, 1], got {p_h0!r}")


def _curve_point(
    h1: H1EdgeDraw, thresholds: Sequence[DceThresholds], p_h0: float, n: int
) -> list[tuple]:
    """The ``dce_curve_row`` at n of each thresholds, all from the full H1
    sample at n: the few numbers a point of a full curve sends back from a
    worker."""
    sample = sample_bf_h1(h1, n)
    return [
        dce_curve_row(n, assemble_dce(h0_band_probabilities(th, n), p_h0,
                                      h1_band_counts(sample, th), h1.draws))
        for th in thresholds
    ]


def dce_curve(
    h1: H1EdgeDraw, thresholds: Sequence[DceThresholds], p_h0: float, n_max: int
) -> list[list[tuple]]:
    """For each thresholds, the list of its ``dce_curve_row`` rows for
    n = 2, ..., n_max.

    Each n takes the full H1 sample of the edge draw ``h1`` at n, which every
    thresholds reads.  ``h1`` must be an ``H1EdgeDraw`` and each thresholds
    a ``DceThresholds`` (``numerics.instance``, else ``TypeError``).
    ``p_h0`` is the edge's prior p(H0), a number in [0, 1], as in
    ``optimal_n_edge``; ``n_max`` is an integer of at least 2
    (``numerics.whole``), as in ``RunConfig``.  All of these, and
    ``h1.f_u.noncentrality(n_max)``, are checked before any point runs; then
    every point is evaluated with ``fork_map``, over as many processes as
    the CPUs and ``h1_process_cap`` allow.
    """
    instance("h1", h1, H1EdgeDraw)
    thresholds = [instance(f"thresholds[{i}]", th, DceThresholds)
                  for i, th in enumerate(thresholds)]
    _check_p_h0(p_h0)
    grid = range(2, whole("n_max", n_max, 2) + 1)
    h1.f_u.noncentrality(n_max)
    points = fork_map(
        _curve_point, [(h1, thresholds, p_h0, n) for n in grid], h1_process_cap(h1.draws)
    )
    return [list(rows) for rows in zip(*points)]


def optimal_n_edge(
    u: str,
    v: str,
    thresholds: DceThresholds,
    p_h0: float,
    posterior: DesignPosterior,
    config: RunConfig = RunConfig(),
    stream: RandomStream = RandomStream(0),
) -> dict:
    """Smallest n on {2, ..., config.n_max} whose overall DCE probability reaches zeta.

    ``p_h0`` is the prior p(H0) of u <- v (``prior_h0``), a number (not a
    bool) in [0, 1]; p(H1) = 1 - p_h0.  ``config`` gives ``draws``,
    ``n_max`` and ``f_u``; its ``a_omega`` is already in ``posterior``.
    ``thresholds``, ``posterior``, ``config`` and ``stream`` must be of
    their annotated types (``numerics.instance``, else ``TypeError``), and
    u and v two distinct columns of ``posterior`` (else ``KeyError`` or
    ``ValueError``), all checked before the scan.

    The result is the ``plan.json`` edge entry ``{u, v, p_h0, n_star,
    achieved, n_max, dce_at_n_star, se_overall}``: ``n_star`` is the first
    crossing of the ``dce_curve`` of
    ``draw_h1_edge(posterior, u, v, f_u, draws, stream)``, ``dce_at_n_star``
    the ``assemble_dce`` mapping there and ``se_overall`` its
    ``mc_se["overall_dc"]``; ``n_max`` is ``config.n_max``.  When no n on the
    grid reaches zeta (not achievable is a value, not an error), ``achieved``
    is false and those three are None.  One test,
    ``reaches_zeta``, drives the scan: at each n it is asked with every draw
    decisive (else n is skipped), after each H1 block with every draw not
    yet seen above 1/k1 (else the sample stops), and with the full sample's
    count (n is accepted).  A stopped sample is, bit for bit, a prefix of the
    curve's sample at n, so that point misses zeta too.  The edge draw is
    made at the first n not skipped, so a scan that skips every n makes none.
    """
    instance("thresholds", thresholds, DceThresholds)
    _check_p_h0(p_h0)
    instance("posterior", posterior, DesignPosterior)
    instance("config", config, RunConfig)
    instance("stream", stream, RandomStream)
    if posterior.column_index(u) == posterior.column_index(v):
        raise ValueError("u and v must be distinct columns")
    draws, n_max = config.draws, config.n_max
    h1 = n_star = dce = None
    for n in range(2, n_max + 1):
        h0_bands = h0_band_probabilities(thresholds, n)
        if not reaches_zeta(thresholds, p_h0, h0_bands[0], draws, draws):
            continue
        if h1 is None:
            h1 = draw_h1_edge(posterior, u, v, config.f_u, draws, stream)
        misses = 0

        def stop(block: np.ndarray) -> bool:
            nonlocal misses
            misses += block.size - decisive_h1_count(block, thresholds)
            return not reaches_zeta(thresholds, p_h0, h0_bands[0], draws - misses, draws)

        sample = sample_bf_h1(h1, n, stop=stop)
        if sample.count < draws:  # stopped: zeta out of reach
            continue
        counts = h1_band_counts(sample, thresholds)
        if reaches_zeta(thresholds, p_h0, h0_bands[0], counts[0], draws):
            n_star, dce = n, assemble_dce(h0_bands, p_h0, counts, draws)
            break
    return {
        "u": u,
        "v": v,
        "p_h0": p_h0,
        "n_star": n_star,
        "achieved": n_star is not None,
        "n_max": n_max,
        "dce_at_n_star": dce,
        "se_overall": None if dce is None else dce["mc_se"]["overall_dc"],
    }


def plan_entry(sequence: Sequence[str], edge_results: dict[str, Sequence[dict]]) -> dict:
    """The ``plan.json`` entry of one candidate sequence.

    ``sequence`` holds the target labels from ``optimal_sequences``, written
    as a list, and ``edge_results`` holds each target's ``optimal_n_edge``
    entries.  Each target gets its ``edges``, a deep copy of those entries,
    so no two plans share a container, and ``n_star_node``, the largest n* of
    its edges; ``total_n`` sums the targets.  Either is None (not
    achievable) as soon as one n* it depends on is None, and ``achieved``
    says whether ``total_n`` is.  ``bos`` starts false: ``plan_cpdag`` flags
    the entry that ``best_size_plan`` picks.
    """
    targets = {}
    for u in sequence:
        edges = copy.deepcopy(list(edge_results[u]))
        stars = [e["n_star"] for e in edges]
        targets[u] = {"edges": edges, "n_star_node": None if None in stars else max(stars)}
    sizes = [t["n_star_node"] for t in targets.values()]
    total_n = None if None in sizes else sum(sizes)
    return {
        "sequence": list(sequence),
        "targets": targets,
        "total_n": total_n,
        "achieved": total_n is not None,
        "bos": False,
    }


def best_size_plan(plans: list[dict]) -> dict | None:
    """The achieved ``plan_entry`` with the smallest ``(total_n, sequence)``,
    or None if none is achieved.

    This is the best-size optimal sequence; ties in the total sample size
    break toward the lexicographically smallest sequence.
    """
    achieved = [p for p in plans if p["achieved"]]
    return min(achieved, key=lambda p: (p["total_n"], p["sequence"]), default=None)


def fork_map(fn: Callable, tasks: Sequence[tuple], workers: int) -> list:
    """``[fn(*task) for task in tasks]``, spread over this process and up to
    ``size - 1`` children made with ``os.fork``.

    The map runs in this process alone on a platform other than Linux and
    while another Python thread is alive, beside which a fork is unsafe.  On
    Linux, where ``os.fork`` and ``os.sched_getaffinity`` always exist,
    ``size`` is the least of ``workers``, the number of tasks and the CPUs
    this process may run on (its affinity mask, which taskset or a cpuset may
    limit), and the map runs here alone when that is 1.  Otherwise process r
    of ``size`` runs the fixed share of tasks r, r + size, r + 2 * size, ...;
    this process is r = 0, so task 0, and every function ``fn`` calls, runs
    here.  No state is shared: the children inherit ``fn`` and the tasks,
    and each sends the pickled results of its share, or the exception a task
    raised, back through a pipe of its own.  A child's exception is raised
    here, and a child that ends without sending its results raises
    ``RuntimeError``.  Before the map returns or raises, every child is
    killed (``SIGKILL``), so none outlives an error, and reaped; a failed
    ``os.fork`` closes both ends of the pipe it was given.

    The shares are fixed, not balanced by cost: the README gives the
    measured balance on the benchmark's edge tasks and curves.
    """
    tasks = list(tasks)
    size = 1
    if sys.platform == "linux" and threading.active_count() == 1:
        size = min(workers, len(tasks), len(os.sched_getaffinity(0)))
    if size < 2:
        return [fn(*task) for task in tasks]
    results = [None] * len(tasks)
    children: dict[int, int] = {}  # pid: read end of the result pipe of child 1, 2, ...
    try:
        for r in range(1, size):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(result_r)
                os.close(result_w)
                raise
            if pid == 0:  # the child: leaves only through os._exit
                try:
                    for fd in (result_r, *children.values()):
                        os.close(fd)
                    try:
                        payload = pickle.dumps((True, [fn(*task) for task in tasks[r::size]]))
                    except BaseException as exc:
                        try:
                            payload = pickle.dumps((False, exc))
                        except Exception:
                            payload = pickle.dumps((False, RuntimeError(repr(exc))))
                    with os.fdopen(result_w, "wb") as fh:
                        fh.write(payload)
                finally:
                    os._exit(0)
            os.close(result_w)
            children[pid] = result_r
        results[0::size] = [fn(*task) for task in tasks[0::size]]
        for r, (pid, result_r) in enumerate(children.items(), 1):
            chunks = []
            while chunk := os.read(result_r, 1 << 16):
                chunks.append(chunk)
            if not chunks:
                raise RuntimeError(f"worker process {pid} ended without its results")
            ok, value = pickle.loads(b"".join(chunks))
            if not ok:
                raise value
            results[r::size] = value
        return results
    finally:
        # a child still at work after an error stops at once; on success
        # every child has sent its results and is on its way out
        for pid, result_r in children.items():
            os.close(result_r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def edge_stream(stream: RandomStream, u: str, v: str) -> RandomStream:
    """The fixed substream of the edge task u - v: the child of ``stream``
    keyed by the first 8 bytes, as two big-endian 32-bit words, of the
    SHA-256 of u and v, each UTF-8 encoded after its 4-byte big-endian
    length.  It depends on the seed and the two labels alone."""
    import hashlib  # here, not at the top: it would cost import causal_ssd.cli 3 ms

    key = b"".join(len(b).to_bytes(4, "big") + b for b in (u.encode(), v.encode()))
    digest = hashlib.sha256(key).digest()
    return stream.child(int.from_bytes(digest[:4], "big"), int.from_bytes(digest[4:8], "big"))


def plan_cpdag(
    cpdag: PartiallyDirectedGraph,
    data: DatasetMatrix,
    thresholds: DceThresholds,
    config: RunConfig = RunConfig(),
    stream: RandomStream = RandomStream(0),
    workers: int = 1,
) -> list[dict]:
    """Plans for every multi-node chain component of a CPDAG.

    The result is the ``components`` list of ``plan.json``: one entry
    ``{component, plans, feasible, error}`` per component of two or more
    nodes, in the order of ``chain_components``, with ``component`` the list
    of its labels; singleton components have no edges to orient and are
    skipped.  Each component gets its design posterior from the
    observational columns matching its node labels (``config.a_omega``,
    T - 1 per component when None) and all optimal sequences; each edge
    task is ``optimal_n_edge`` under ``config``.  Once every edge task has
    run, ``plans`` holds one ``plan_entry`` per sequence, and the one
    ``best_size_plan`` picks is flagged ``bos``; ``feasible`` says whether
    there is one.  Failures (missing data columns, a component above
    ``SUBSET_SCAN_CAP`` nodes, a non-chordal component, an improper
    posterior, the ``pair_factor`` of one of its edge tasks out of the float
    range) are found before any edge task runs and are reported per
    component, as its ``error`` with ``plans`` empty, without aborting the
    others.  ``RunConfig`` has checked the run parameters.  ``cpdag``,
    ``data``, ``thresholds``, ``config`` and ``stream`` must be of their
    annotated types, or ``TypeError`` is raised; ``workers`` must be an
    integer of at least 1 (``numerics.whole``), and the noncentrality of
    ``config.f_u`` at ``config.n_max`` a finite float
    (``InterventionDensity.noncentrality``), or ``ValueError`` is raised.
    Both are raised before any component is read.

    ``workers`` > 1 runs the edge tasks with ``fork_map``, over at most
    ``workers`` processes, one per edge task and per CPU the process may use,
    and no more than ``h1_process_cap`` allows; each task's first-crossing
    scan runs in one process.  Results do not depend on the number of
    processes because every edge owns a fixed substream (``edge_stream``).
    """
    instance("cpdag", cpdag, PartiallyDirectedGraph)
    instance("data", data, DatasetMatrix)
    instance("thresholds", thresholds, DceThresholds)
    instance("config", config, RunConfig)
    instance("stream", stream, RandomStream)
    workers = whole("workers", workers, 1)
    config.f_u.noncentrality(config.n_max)
    out: list[dict] = []
    searched = []  # (entry of out, subgraph, sequences) of the error-free components
    tasks: dict[tuple[str, str], tuple] = {}  # optimal_n_edge arguments per edge
    for sub in chain_components(cpdag):
        comp = sub.nodes
        if len(comp) < 2:
            continue
        entry = {"component": list(comp), "plans": [], "feasible": False, "error": None}
        out.append(entry)
        try:
            posterior = build_design_posterior(data.restrict(comp), config.a_omega)
            sequences = optimal_sequences(sub)
            edges = list(dict.fromkeys(
                (u, v) for seq in sequences for u in seq for v in sub.undirected_neighbors(u)
            ))
            for u, v in edges:  # raises here, not in the edge task, whether or not it draws
                pair_factor(posterior, u, v)
        except (CapacityError, NotDecomposableError, InsufficientDataError,
                MissingColumnsError) as exc:
            entry["error"] = str(exc)
            continue
        for u, v in edges:
            tasks[(u, v)] = (u, v, thresholds, prior_h0(sub, u, v), posterior, config,
                             edge_stream(stream, u, v))
        searched.append((entry, sub, sequences))

    # optimal_n_edge is looked up at call time, so a wrapper bound to the
    # module attribute is the function the workers run
    evaluated = fork_map(
        optimal_n_edge, list(tasks.values()), min(workers, h1_process_cap(config.draws))
    )
    results = dict(zip(tasks, evaluated))

    for entry, sub, sequences in searched:
        entry["plans"] = [
            plan_entry(seq, {u: [results[(u, v)] for v in sub.undirected_neighbors(u)]
                             for u in seq})
            for seq in sequences
        ]
        best = best_size_plan(entry["plans"])
        if best is not None:
            best["bos"] = entry["feasible"] = True
    return out
