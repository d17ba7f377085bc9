"""Walk-through on the bundled running example.

The model is a sound free-choice net over two activities whose language is
(aab|aba)+b: a fork into an a-branch and a b-branch that either restarts
through a silent loop-back or finishes with a final b.  The loop-back refills
the initial place, so the net is no workflow net.
"""

from petrialign import (behavioral_class, ex1_system, membership,
                        optimal_alignment, render_alignment, structural_class)

system = ex1_system()

print("== structure ==")
report = structural_class(system.net, system.initial, system.final)
for flag in ("free_choice", "s_net", "t_net", "conflict_free", "acyclic",
             "workflow_shape"):
    print(f"  {flag} = {getattr(report, flag)}")

print("== behavior ==")
behavior = behavioral_class(system)
print(f"  bound = {behavior.bound_found} (safe = {behavior.safe})")
print(f"  sound = {behavior.sound}, live = {behavior.live}, "
      f"cyclic = {behavior.cyclic}")
print(f"  reachable markings: {behavior.states_explored}")

print("== language membership ==")
for word in (("a", "a", "b", "b"), ("a", "b", "a", "b"), ("a", "b", "a", "a")):
    print(f"  {','.join(word)} in L(S): {membership(word, system)}")

print("== optimal alignment of the deviating trace a,b,a,a ==")
result = optimal_alignment(("a", "b", "a", "a"), system)
print(f"  cost = {result.cost} via {result.algorithm} "
      f"({result.states_expanded} states expanded)")
print(render_alignment(result.alignment, system))

print("== aligning the empty trace = cheapest complete run ==")
empty = optimal_alignment((), system)
print(f"  cost = {empty.cost}")
print(render_alignment(empty.alignment, system))
