"""Call-graph construction with SCC condensation.

The whole-program listing (``repro analyze --whole-program``) needs two
orderings over a program's functions:

* **bottom-up** (callees before callers) — the order function summaries
  are computed in, so a caller's summary can fold in its callees';
* **top-down** (callers before callees) — the order the listing prints
  them in.

Both are topological orders over the **condensation**: strongly
connected components (direct or mutual recursion) collapse to one node.
Functions inside a non-trivial SCC — or with a self edge — are flagged
``recursive`` and get the conservative ⊤ summary, which keeps recursion
sound without a cross-function fixpoint.

Calls whose target is not defined in the program (possible for
hand-built fragments that skip :meth:`Program.validate`) contribute no
edge but flag the caller ``has_unknown_calls`` — its summary degrades
to ⊤ free effects, today's behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..ir.nodes import Call
from ..ir.program import Program, walk


@dataclass
class CallGraph:
    """Edges, call sites, and the SCC condensation of one program."""

    #: caller -> set of callee names (known targets only).
    callees: Dict[str, Set[str]] = field(default_factory=dict)
    #: callee -> set of caller names.
    callers: Dict[str, Set[str]] = field(default_factory=dict)
    #: callee -> [(caller name, Call instruction), ...] in walk order.
    call_sites: Dict[str, List[Tuple[str, Call]]] = field(
        default_factory=dict
    )
    #: SCCs in bottom-up (callees-first) order; singletons included.
    sccs: List[Tuple[str, ...]] = field(default_factory=list)
    #: Members of non-trivial SCCs plus self-recursive functions.
    recursive: Set[str] = field(default_factory=set)
    #: Functions containing a call to a target the program lacks.
    unknown_callers: Set[str] = field(default_factory=set)

    def bottom_up(self) -> List[str]:
        """Function names, callees before callers."""
        return [name for scc in self.sccs for name in scc]

    def top_down(self) -> List[str]:
        """Function names, callers before callees."""
        return [name for scc in reversed(self.sccs) for name in scc]

    def render(self) -> str:
        """A compact text rendering (the analyze CLI prints this)."""
        lines = []
        for name in self.top_down():
            targets = sorted(self.callees.get(name, ()))
            mark = " [recursive]" if name in self.recursive else ""
            arrow = f" -> {', '.join(targets)}" if targets else ""
            lines.append(f"{name}{arrow}{mark}")
        return "\n".join(lines)


def build_call_graph(program: Program) -> CallGraph:
    """Build the call graph of ``program`` and condense its SCCs."""
    graph = CallGraph()
    names = list(program.functions)
    for name in names:
        graph.callees[name] = set()
        graph.callers.setdefault(name, set())
    for name in names:
        for instr in walk(program.functions[name].body):
            if not isinstance(instr, Call):
                continue
            if instr.func not in program.functions:
                graph.unknown_callers.add(name)
                continue
            graph.callees[name].add(instr.func)
            graph.callers.setdefault(instr.func, set()).add(name)
            graph.call_sites.setdefault(instr.func, []).append(
                (name, instr)
            )
    graph.sccs = _tarjan(names, graph.callees)
    for scc in graph.sccs:
        if len(scc) > 1:
            graph.recursive.update(scc)
        elif scc[0] in graph.callees.get(scc[0], ()):
            graph.recursive.add(scc[0])  # self edge
    return graph


def _tarjan(
    names: List[str], edges: Dict[str, Set[str]]
) -> List[Tuple[str, ...]]:
    """Iterative Tarjan; emits SCCs callees-first (reverse topological
    over the condensation, with caller->callee edges)."""
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Tuple[str, ...]] = []
    counter = [0]

    for root in names:
        if root in index_of:
            continue
        # explicit DFS stack of (node, iterator over successors)
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(component)))
    return sccs
