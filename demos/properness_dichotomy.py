"""Proper or not? Both sides of the dichotomy, made concrete.

A proper action comes with clocks: linear functions that every group
element shifts by a constant, so that a point and its image pin down the
group element up to a kernel that acts properly on its own.  The same data
give a constructive inverse: from a point and its image alone, rebuild the
unique group element connecting them.  A non-proper action comes with an
escape: group elements of exploding size whose effect on some base point
stays bounded.

Run:  python3 demos/properness_dichotomy.py
"""

from fractions import Fraction

from minkact.catalog import entry_by_id, nonproperness_witness
from minkact.group import act, compose, exp_element, translation
from minkact.linalg import vscale
from minkact.properness import (
    check_witness,
    clock_certificate,
    fixed_point_nonproper_certificate,
    recover_element,
)
from minkact.subalgebra import require_closed


def proper_side():
    entry = entry_by_id("T2:Yn1+me4-W2")
    mu = Fraction(3)
    print(f"Proper side: {entry.entry_id} ({entry.summary}), mu = {mu}")
    h = require_closed(entry.build({"mu": mu}))
    cert = clock_certificate(h)
    print(f"  clock certificate: {cert.describe()}")
    drift, e2, null_line = h.basis
    g = compose(translation(vscale(5, null_line.trans)),
                exp_element(drift.scaled(Fraction(2, 3)) - e2, 1))
    x = (1, 2, 3, 5)
    y = act(g, x)
    print("  g = translation by 5(e3-e4) after exp(2/3 (Yn1 + mu e4) - e2)")
    print(f"  moves x = {x} to y = ({','.join(str(c) for c in y)})")
    readings = [sum(c * (b - a) for c, a, b in zip(cov, x, y)) for cov, _ in cert.clocks]
    print(f"  the clocks read ({','.join(map(str, readings))}) off (x, y): the rates of the "
          f"section exp(2/3 (Yn1 + mu e4) - e2);")
    print("  the displacement left over is the kernel translation 5(e3-e4)")
    print(f"  recovered element equals g exactly: {recover_element(cert, x, y) == g}")
    print(f"  noncompact stabilizer anywhere? "
          f"{fixed_point_nonproper_certificate(h) is not None}")
    print()


def nonproper_side():
    entry = entry_by_id("T3:nilpotent-pair")
    params = {"lam": Fraction(1), "mu": Fraction(3)}
    h = require_closed(entry.build(params))
    print(f"Non-proper side: {entry.entry_id} ({entry.summary}), "
          f"lam = {params['lam']}, mu = {params['mu']}")
    cert = fixed_point_nonproper_certificate(h)
    print(f"  noncompact stabilizer at the origin: {cert is not None} "
          f"(the recurrent point is irrational here)")
    witness, mechanism = nonproperness_witness(entry, params, h)
    print(f"  mechanism: {mechanism}")
    print(f"  {witness.description}")
    rep = check_witness(witness, steps=1024, tol=1e-6)
    print("      n      |g_n|          g_n.x - x")
    for n, norm in zip(rep.steps, rep.group_norms):
        V, v = witness.group_at(n)
        x = witness.point_at(n)
        drift = float(max(abs(c) for c in (V @ x + v - x)))
        print(f"  {n:>5d}  {norm:>12.4g}  {drift:>12.3g}")
    print(f"  group norms diverge while the images stay Cauchy "
          f"(tail gap {rep.image_gap:.3g}) -- properness fails.")
    print()


def boundary():
    print("The drift parameter is the whole story for the decorated families:")
    for eid, boundary_id, pname, val in (
            ("T2:Ya+le1-W2", "T2:Ya-W2", "lam", Fraction(1, 2)),
            ("T2:Yn1+me4-W2", "T2:Yn1-W2", "mu", Fraction(3))):
        decorated = require_closed(entry_by_id(eid).build({pname: val}))
        plain = require_closed(entry_by_id(boundary_id).build({}))
        a = fixed_point_nonproper_certificate(decorated)
        b = fixed_point_nonproper_certificate(plain)
        print(f"  {eid} ({pname}={val}): stabilizer certificate? {a is not None}, "
              f"clock certificate? {clock_certificate(decorated) is not None}")
        print(f"  {boundary_id} ({pname}=0):  stabilizer certificate? {b is not None}, "
              f"clock certificate? {clock_certificate(plain) is not None}")


def main():
    proper_side()
    nonproper_side()
    boundary()


if __name__ == "__main__":
    main()
