"""Chain graphs with directed and bidirected edges.

Separation criteria, Markov properties, graphoid-axiom closures,
factorizations, structural checks, latent-DAG oracles and intervention
surgery for desk-scale mixed graphs, plus exhaustive/random graph
generators to verify the lot mechanically.
"""

from .chain import (ChainDecomposition, Relatives, is_chain_graph, pre_of_component,
                    relatives, validate_chain_graph)
from .closure import AxiomSet, CheckResult, close, equivalent_under, satisfies
from .distributions import (JointTable, ci_holds, sample_latent_dag_distribution,
                            verify_factorization)
from .enumeration import (enumerate_dags, enumerate_mvr_cgs, random_mvr_cg,
                          random_mvr_cgs)
from .factorization import (Factorization, HeadTail, barren, factorize_component_dag,
                            factorize_mvr, head_partition, heads)
from .graph import (MixedGraph, UndirectedGraph, ancestors, anteriors, district_of,
                    districts, induced_subgraph)
from .intervention import intervene
from .properties import (alt_local_triples, markov_blanket, mr_triples,
                         ordered_local_triples, pairwise_triples, type_iv_triples)
from .separation import (augmented_graph, d_separated, global_model,
                         m_connecting_walk, m_separated, m_star_separated)
from .structure import (CanonicalDag, canonical_dag, find_primitive_inducing_chain,
                        is_ancestral, is_maximal, marginal_model_equal)
from .triples import IndependenceModel, IndependenceTriple

__version__ = "0.1.0"

__all__ = [
    "AxiomSet", "CanonicalDag", "ChainDecomposition", "CheckResult",
    "Factorization", "HeadTail", "IndependenceModel", "IndependenceTriple",
    "JointTable", "MixedGraph", "Relatives", "UndirectedGraph",
    "alt_local_triples", "ancestors", "anteriors", "augmented_graph", "barren",
    "canonical_dag", "ci_holds", "close", "d_separated", "district_of",
    "districts", "enumerate_dags", "enumerate_mvr_cgs", "equivalent_under",
    "factorize_component_dag", "factorize_mvr", "find_primitive_inducing_chain",
    "global_model", "head_partition", "heads", "induced_subgraph", "intervene",
    "is_ancestral", "is_chain_graph", "is_maximal", "m_connecting_walk",
    "m_separated", "m_star_separated", "marginal_model_equal", "markov_blanket",
    "mr_triples", "ordered_local_triples", "pairwise_triples", "pre_of_component",
    "random_mvr_cg",
    "random_mvr_cgs", "relatives", "sample_latent_dag_distribution", "satisfies",
    "type_iv_triples", "validate_chain_graph", "verify_factorization",
]
