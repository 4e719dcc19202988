"""Intervention planning and Bayesian sample size determination for causal DAGs.

Given a CPDAG (essential graph) and past observational data, this package
selects optimal sequences of intervention targets for identifying a causal
DAG within each chain component, and determines for every intervention the
minimal interventional sample size guaranteeing a pre-experimental
probability of decisive-and-correct Bayes-factor evidence above a user
threshold.

``__all__`` is the library's contract: the inputs and entry point of a
plan (``parse_edge_list``, ``ingest_csv``, ``DceThresholds``,
``InterventionDensity``, ``RunConfig``, ``RandomStream``, ``plan_cpdag``)
and the pipeline pieces under it.  ``RunConfig`` holds the run parameters
(draws, n_max, the intervention density, a_omega) and is the one place
they are checked; ``plan_cpdag``, ``optimal_n_edge`` and
``replicate_two_node_study`` take it.  Everything else is reachable
through its module but may change without notice.
"""

from causal_ssd.numerics import RandomStream
from causal_ssd.graph import meek_closure, parse_edge_list
from causal_ssd.design import optimal_sequences, prior_h0
from causal_ssd.predictive import (
    InterventionDensity,
    draw_h1_edge,
    prob_bf_band_h0,
    sample_bf_h0,
    sample_bf_h1,
)
from causal_ssd.ssd import DceThresholds, RunConfig, optimal_n_edge, plan_cpdag
from causal_ssd.harness import ingest_csv, replicate_two_node_study

__all__ = [
    # a plan end to end
    "DceThresholds",
    "InterventionDensity",
    "RandomStream",
    "RunConfig",
    "ingest_csv",
    "parse_edge_list",
    "plan_cpdag",
    # the pipeline pieces
    "draw_h1_edge",
    "meek_closure",
    "optimal_n_edge",
    "optimal_sequences",
    "prior_h0",
    "prob_bf_band_h0",
    "replicate_two_node_study",
    "sample_bf_h0",
    "sample_bf_h1",
]

__version__ = "0.6.14"
