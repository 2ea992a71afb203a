"""Constraint-set simplification: deduplication and subsumption.

Path prefixes repeat themselves: the same sanity-check constraint shows
up once per execution, and loop boundaries contribute families like
``x - k <= 0`` for many ``k`` where only the tightest matters.  Both are
sound to drop before solving:

* **duplicates** — identical (lhs, op) pairs;
* **subsumption** — for constraints sharing a left-hand side,
  ``lhs + c1 ⋈ 0`` implies ``lhs + c2 ⋈ 0`` when c1 dominates c2 for ⋈
  (``<=``: c1 ≥ c2; ``==`` implies any ``<=`` it satisfies...; we keep
  the conservative ``<=``-family rule plus exact-duplicate removal for
  ``==``/``!=``).

This shrinks the dependency slice the incremental solver walks — the same
engineering Yices' preprocessing performs.
"""

from __future__ import annotations

from ..concolic.expr import Constraint, LinearExpr


def _coeff_key(lhs: LinearExpr) -> tuple:
    return tuple(sorted(lhs.coeffs.items()))


def simplify(constraints: list[Constraint]) -> list[Constraint]:
    """Return an equivalent, usually smaller, constraint list.

    Preserves satisfiability and the solution set exactly; ordering of
    the survivors follows first appearance.
    """
    # bucket normalized <= constraints per coefficient vector, keeping
    # only the tightest constant; pass others through a dedup set
    tightest_le: dict[tuple, int] = {}
    seen_exact: set[tuple] = set()
    order: list[tuple[str, tuple, Constraint]] = []

    for c in constraints:
        for n in c.normalized():
            key = _coeff_key(n.lhs)
            if n.op == "<=":
                # lhs + const <= 0 : larger const = tighter
                prev = tightest_le.get(key)
                if prev is None or n.lhs.const > prev:
                    tightest_le[key] = n.lhs.const
                    order.append(("le", key, n))
            else:
                exact = (n.op, key, n.lhs.const)
                if exact not in seen_exact:
                    seen_exact.add(exact)
                    order.append(("other", exact, n))

    out: list[Constraint] = []
    emitted_le: set[tuple] = set()
    for kind, key, c in order:
        if kind == "le":
            if key in emitted_le:
                continue
            # emit the final tightest version for this coefficient vector
            if c.lhs.const == tightest_le[key]:
                out.append(c)
                emitted_le.add(key)
            else:
                # a tighter one appears later; emit it there
                tight = Constraint(LinearExpr(dict(key), tightest_le[key]),
                                   "<=")
                out.append(tight)
                emitted_le.add(key)
        else:
            out.append(c)
    return out

