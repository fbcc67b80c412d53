#!/usr/bin/env python3
"""Gather evidence on the open coefficient-shape conjectures.

These runs never prove anything: a pass is bounded empirical evidence,
a violation would be a publishable finding.  The one known
counterexample (binary n = 4 log-concavity, 18^2 < 18*20) is
reproduced on the way.
"""

from subsum import intpoly, reduction, verify
from subsum.partitions import PartitionClass

print("Even part of num(n,x): unimodal for n <= 25?")
report = verify.run("3", 25)
print(f"  verdict: {report.verdict}, findings: {len(report.failures)}")

print()
print("Log-concavity of den(n,x) for n <= 20 (expected exceptions 3, 5, 6, 7):")
report = verify.run("4", 20)
failures = sorted(w["n"] for w in report.witnesses if w.get("log_concave") is False)
print(f"  observed failure set: {failures}")
for w in report.witnesses:
    if "detail" in w:
        print(f"    n={w['n']}: {w['detail']}")

print()
print("Binary numerator shape for n <= 24:")
report = verify.run("6", 24)
num4 = reduction.num(4, PartitionClass.BINARY)
print(f"  num_B(4,x) coefficients: {list(num4)}")
ok, idx = intpoly.is_log_concave(num4)
print(f"  log-concave: {ok}; first violated index {idx}: "
      f"{num4[idx]}^2 = {num4[idx] ** 2} < {num4[idx - 1]}*{num4[idx + 1]} = {num4[idx - 1] * num4[idx + 1]}")
not_lc = sorted(w["n"] for w in report.witnesses if not w["log_concave"])
print(f"  log-concavity failures in range: {not_lc} (corrected conjecture allows 4, 5)")
print(f"  unimodal for every n > 5 in range: {all(w['unimodal'] for w in report.witnesses if w['n'] > 5)}")

print()
print("Irreducibility witnesses for num(n,x), n <= 10 (mod-p certificates):")
for n in range(2, 11):
    rec = verify.irreducibility_witness(n, PartitionClass.ORDINARY)
    tag = f"certified at p={rec['prime']}" if rec["verdict"] == "IrreducibleCertified" else "inconclusive"
    print(f"  n={n:2d}: content {rec['content']}, {tag}")
