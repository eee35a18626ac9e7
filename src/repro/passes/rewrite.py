"""The pattern-rewrite optimization pass for the translate -> offline slot.

:class:`RewritePass` contracts measure-:math:`J(0)` / zero-angle pairs out
of the MBQC pattern (:func:`repro.mbqc.optimize.optimize_pattern`) before
offline mapping sees it, shrinking both the mapping problem and the online
reshape workload.  The contraction is a Pauli-frame simplification — it
preserves program semantics exactly.  The built-in circuits reach it
already simplified (it contracts nothing on them); it earns its slot on
unsimplified {J, CZ} circuits handed to the Python API.

The pass is ``cacheable`` and declares no ``reads``: its output is a pure
function of the incoming pattern.  Its cache key chains on the key of that
pattern, and every key downstream chains on its own.
"""

from __future__ import annotations

from repro.pipeline.context import PassContext
from repro.pipeline.passes import CompilerPass


class RewritePass(CompilerPass):
    """Zero-angle pair contraction on the translated pattern (in place).

    ``provides`` repeats ``requires``: the pass refines the ``pattern``
    artifact rather than minting a new key, which is the in-place-transform
    shape :func:`repro.pipeline.pipeline.check_chain` admits (a provides
    collision is only legal when the colliding key is also required).
    """

    name = "rewrite"
    requires = ("pattern",)
    provides = ("pattern",)
    cacheable = True
    #: Where the CLI's ``--passes`` front door slots this pass by default.
    default_slot = "translate"

    def run(self, ctx: PassContext) -> None:
        from repro.mbqc.optimize import optimize_pattern

        pattern = ctx.require("pattern")
        report = optimize_pattern(pattern)
        ctx.put("pattern", pattern)
        ctx.metrics["rewrite_nodes_before"] = report.nodes_before
        ctx.metrics["rewrite_nodes_after"] = report.nodes_after
        ctx.metrics["rewrite_contracted_pairs"] = report.contracted_pairs
