"""Intervention planning and Bayesian sample size determination for causal DAGs.

Given a CPDAG (essential graph) and past observational data, this package
selects optimal sequences of intervention targets for identifying a causal
DAG within each chain component, and determines for every intervention the
minimal interventional sample size guaranteeing a pre-experimental
probability of decisive-and-correct Bayes-factor evidence above a user
threshold.
"""

from causal_ssd.numerics import RandomStream, WishartParams
from causal_ssd.graph import (
    UndirectedGraph,
    Dag,
    PartiallyDirectedGraph,
    ChainComponentDecomposition,
    CliqueSequence,
    chain_components,
    is_decomposable,
    perfect_clique_sequence,
    enumerate_class,
    meek_closure,
    dag_to_cpdag,
    parse_edge_list,
    format_edge_list,
)
from causal_ssd.design import (
    InterventionSequence,
    EdgeHypothesisPrior,
    is_sufficient,
    optimal_sequences,
    prior_h0,
    best_size_optimal_sequence,
)
from causal_ssd.bayes import (
    FbfConfig,
    PairedSample,
    g_of_n,
    uncentered_correlation_sq,
    bf01,
    marginal_likelihood_subset,
    bf01_subjective,
    fbf_objective_bf,
)
from causal_ssd.predictive import (
    DesignPosterior,
    InterventionDensity,
    BfPredictiveSample,
    build_design_posterior,
    sample_bf_h0,
    prob_bf_band_h0,
    sample_bf_h1,
)
from causal_ssd.ssd import (
    DceThresholds,
    DceProbabilities,
    EdgeSsdResult,
    InterventionPlan,
    ComponentPlans,
    dce_probabilities,
    optimal_n_edge,
    optimal_n_node,
    plan_sequence,
    plan_cpdag,
)
from causal_ssd.harness import (
    DatasetMatrix,
    LinearSemSpec,
    TwoNodeStudyConfig,
    TwoNodeStudyReport,
    generate_sem_data,
    replicate_two_node_study,
    ingest_csv,
)

__version__ = "0.1.0"
