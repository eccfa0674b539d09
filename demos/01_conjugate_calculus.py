"""Tour of the exact piecewise-linear convex calculus.

Builds a few standard functions, conjugates them, and shows the structural
identities that the whole verification stack leans on: conjugation is an
involution, and the recession function is the support function of the
conjugate's domain.
"""

from fractions import Fraction as F

from cadlagconvex import INF, NEG_INF, RInterval, abs_fn, indicator, pl, support_fn


def describe(name, fn):
    dom = f"[{fn.dom_lo}, {fn.dom_hi}]"
    print(f"  {name}: domain {dom}, breakpoints {list(fn.breakpoints)}, "
          f"slopes {list(fn.slopes)}, anchor ({fn.anchor_x}, {fn.anchor_val})")


def main():
    print("== absolute value and its conjugate ==")
    h = abs_fn()
    describe("h = |x|", h)
    star = h.conjugate()
    describe("h*", star)
    print("  h*(1/2) =", star(F(1, 2)), " h*(2) =", star(F(2)))
    print("  h** == h:", star.conjugate() == h)

    print("\n== an asymmetric kink: max(-x, 2x - 3) ==")
    kink = pl(NEG_INF, INF, (1,), (-1, 2), 1, -1)  # slopes -1 then 2, kink at (1, -1)
    describe("g", kink)
    gstar = kink.conjugate()
    describe("g*", gstar)
    print("  g*(v) = v + 1 on its domain; g*(0) =", gstar(F(0)))
    print("  recession of g:", end=" ")
    describe("", kink.recession())
    print("  sigma_{dom g*} == g^inf:",
          support_fn(gstar.domain) == kink.recession())

    print("\n== subdifferentials and normal cones ==")
    print("  d|x| at 0:", h.subdiff(F(0)))
    box = indicator(RInterval(F(0), F(2)))
    print("  normal cone of [0,2] at 2:", box.subdiff(F(2)))
    print("  Fenchel equality certifies membership: |1| + h*(1) == 1*1:",
          h(F(1)) + star(F(1)) == 1)

    print("\n== constrained minimization ==")
    val, argmin = kink.inf_over(RInterval(F(0), F(4)))
    print("  inf of g over [0,4] =", val, "attained on", argmin)


if __name__ == "__main__":
    main()
