"""Conformance checking for Petri-net process models.

Computes optimal alignments between observed traces and accepting systems,
routing each to a generic cost-minimal reachability search or a polynomial
S-system solver; an acyclic solver (the same search behind its check) and the
length cap of live bounded free-choice systems are available on request.
Also classifies nets, shortens firing sequences, translates process trees,
and generates hardness instances.
"""

from .acyclic import optimal_alignment_acyclic, realize_parikh_acyclic
from .classify import (BehavioralReport, BoundReport, StructuralReport,
                       behavioral_class, bounded_and_safe, structural_class)
from .costs import (Alignment, Cost, CostFunction, Move, parse_cost,
                    render_alignment, standard_costs, validate_alignment)
from .engine import (AlignResult, Budgets, brute_force_oracle, dispatch_align,
                     lbfc_cap, lbfc_length_bound, membership, min_cost_reach,
                     optimal_alignment)
from .fixtures import ex1_acyclic_system, ex1_system
from .generators import (GadgetRecord, MachineRun, TuringMachine,
                         gen_shuffle_ssystem, gen_shuffle_tsystem,
                         gen_tm_wfnet, make_easy_sound_general,
                         make_easy_sound_safe, run_machine, tm_accepts)
from .netio import (parse_cost_file, parse_net, parse_tm, parse_trace,
                    serialize_net)
from .petri import (AcceptingSystem, Label, Marking, PetriNet, enabled_transitions,
                    fire, fire_sequence, is_enabled, parikh)
from .products import (ReachabilityGraph, build_reachability_graph,
                       product_of_reach_graphs, product_parts,
                       synchronous_product, trace_system)
from .shorten import (Cluster, ConflictOrder, ShortenResult, compute_clusters,
                      conflict_order_from_sequence, is_biased, shorten_biased,
                      shorten_lbfc)
from .ssystem import optimal_alignment_ssystem
from .trees import (ProcessTree, ShuffleInstance, has_unique_labels,
                    parse_tree, shuffle_member, tree_alphabet,
                    tree_language_member, tree_to_wfnet)

__all__ = [name for name in dir() if not name.startswith("_")]
