"""The dispatcher picks the cheapest correct solver per model class.

Three instances: the cyclic running example (generic product search), a
single-token S-system cycle (the same search under its polynomial state
bound), and an acyclic shuffle net (the generic search too, which
`optimal_alignment_acyclic` runs behind its acyclicity check).  The length
cap of live bounded free-choice systems is asked for separately, through
`lbfc_cap`.  The brute-force oracle cross-checks every optimum.
"""

from petrialign import (AcceptingSystem, Label, Marking, PetriNet,
                        brute_force_oracle, dispatch_align, ex1_system,
                        gen_shuffle_tsystem, lbfc_cap)

cycle_net = PetriNet(
    ("p0", "p1"), ("ta", "tb"),
    [("p0", "ta"), ("ta", "p1"), ("p1", "tb"), ("tb", "p0")],
    {"ta": Label("a"), "tb": Label("b")})
instances = [
    ("running example", ex1_system(), ("a", "b", "a", "a")),
    ("S-system cycle", AcceptingSystem(cycle_net, Marking.of("p0"),
                                       Marking.of("p0")), ("a", "a")),
    ("shuffle T-system", gen_shuffle_tsystem([("a", "b"), ("c", "d")]),
     ("a", "c", "d", "b")),
]

for name, system, trace in instances:
    result = dispatch_align(trace, system)
    oracle = brute_force_oracle(trace, system)
    bound = lbfc_cap(system, len(trace))
    cap = f", length cap {bound}" if bound else ""
    print(f"{name}: trace {','.join(trace)}")
    print(f"  routed to {result.algorithm}: cost {result.cost} "
          f"({result.states_expanded} states{cap})")
    print(f"  oracle agrees: {result.cost == oracle}")
