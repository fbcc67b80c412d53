"""The cheap routes of `verify`'s proved checks against the full path.

Each proved check takes one route that builds no num.  This module
re-runs each route beside the full path, num = num*/G by
`reduction.num`, and lists where the two disagree:

* conjectures 2, 5, 7 and lemma 4: a certificate L != 0 from
  `reduction.leading_coefficient` proves that Phi_{2d} does not divide
  num(n), so the full test `cyclotomic.phi_2d_divides` must deny it,
  for every part d <= n of the class;
* conjectures 8 and 9: `reduction.num_at` at x0 = -1 must equal num(n)
  evaluated there;
* conjecture 10: `reduction.num_at` at x0 = 1 must equal num(m) there,
  for m = 3n, 3n+1, 3n+2.

The tests and one CI step call `disagreements`.
"""

from subsum import cyclotomic, intpoly, reduction, verify
from subsum.partitions import allowed_parts

CERTIFIED_IDS = ("2", "5", "7", "lemma4")
ROUTE_IDS = (*CERTIFIED_IDS, "8", "9", "10")


def disagreements(cid, max_n):
    """(n, d) or (m, x0) wherever conjecture cid's route and the full path disagree, over its n up to max_n."""
    entry = verify.CONJECTURES[cid]
    pclass = entry.pclass
    ns = range(entry.lowest_n, max_n + 1)
    if cid in CERTIFIED_IDS:
        return [
            (n, d)
            for n in ns
            for d in allowed_parts(pclass, n)
            if reduction.leading_coefficient(n, pclass, d)[2]
            and cyclotomic.phi_2d_divides(reduction.num(n, pclass), d)
        ]
    if cid in ("8", "9"):
        points = [(n, -1) for n in ns]
    elif cid == "10":
        points = [(m, 1) for k in ns for m in range(3 * k, 3 * k + 3)]
    else:
        raise ValueError(f"conjecture {cid} takes no cheap route")
    return [
        (m, x0)
        for m, x0 in points
        if reduction.num_at(m, pclass, x0) != intpoly.eval_at_int(reduction.num(m, pclass), x0)
    ]
