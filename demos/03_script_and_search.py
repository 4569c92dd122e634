#!/usr/bin/env python3
"""Scripts: check the bundled proof, then rediscover a piece by search.

The bundled .dwk file declares the geometry, states the headline goal,
and spells out a 13-step proof.  After replaying it, we drop the steps
for the support-collapse subgoal and let the bidirectional search find
its own chain, which is then replayed like any hand-written one.
"""

import dataclasses
import pathlib

from dworklab import (
    Oim,
    Opb,
    RGamma,
    Shift,
    Struct,
    check_certificate,
    load_script,
    prove,
    text_report,
)
from dworklab.certificates import ProofCertificate
from dworklab.geometry import SubName

BUNDLED = (pathlib.Path(__file__).resolve().parent.parent
           / "src" / "dworklab" / "data" / "dwork_theorem.dwk")

bound = load_script(BUNDLED.read_text(encoding="utf-8"))
print(f"script: {len(bound.document.statements)} statements, "
      f"{len(bound.certificate.steps)} proof steps")
print(text_report(check_certificate(bound.ctx, bound.certificate)))

# now search for the collapse of a pushed-forward structure sheaf onto
# local cohomology, without giving the prover any steps
ctx = bound.ctx
lhs = Opb(ctx.composite("iotacheck"), Oim(ctx.composite("s"), Struct("X")))
rhs = Shift(RGamma(SubName("S"), Struct("X")), 1)
res = prove(ctx, lhs, rhs, max_depth=6)
print(text_report(res))

if res.found:
    cert = ProofCertificate(name="rediscovered", goal_lhs=lhs, goal_rhs=rhs,
                            steps=tuple(res.steps), closure=res.closure)
    print(text_report(check_certificate(ctx, cert)))
