"""Compare range-enclosure methods on a nonsmooth scalar map.

Walks through the core workflow: parse an expression, bound its generalized
derivatives over a box, evaluate all competing enclosures, and quantify how
far each one is from the true range with a dense sampling oracle.

Run: python3 demos/01_range_enclosures.py
"""

import numpy as np

from mixmono import (
    Box,
    clarke_jacobian_bounds,
    error_bounds,
    hausdorff_q,
    parse_expr,
    sampled_range,
    subdivide_apply,
    t_c_inclusion,
    t_l_inclusion,
    t_n_inclusion,
    t_r_inclusion,
)
from mixmono.inclusion import REMAINDER, default_jac_provider

TEXT = "min(x1, 1.7 - x1) + 0.3*abs(x1 - 0.4)"
BOX = Box.from_pairs([(-1, 3)])


def fmt(box):
    return "  ".join(f"[{d.lo:+.4f}, {d.hi:+.4f}]" for d in box)


def main():
    expr = parse_expr(TEXT, ["x1"])
    jac = clarke_jacobian_bounds([expr], BOX)
    print(f"f(x1) = {TEXT}  over  {fmt(BOX)}")
    print(f"derivative bounds: [{jac[(0, 0)].lo:+.2f}, {jac[(0, 0)].hi:+.2f}]\n")

    oracle = sampled_range([expr], BOX, np.random.default_rng(0))
    rows = {
        "natural": t_n_inclusion([expr], BOX),
        "centered": t_c_inclusion([expr], jac, BOX),
        "sign-selected": t_l_inclusion([expr], jac, BOX),
        "remainder": t_r_inclusion([expr], jac, BOX),
        "sampled (inner)": oracle,
    }
    for name, enc in rows.items():
        gap = hausdorff_q(enc, oracle)
        print(f"{name:16s} {fmt(enc)}   distance-to-range {gap:.4f}")

    eb = error_bounds(expr, jac.row(0), BOX, oracle[0])
    print(f"\na-priori error bounds: q_upper_hat={eb.q_upper_hat:.4f} "
          f"q_upper={eb.q_upper:.4f} (sampled lower estimate "
          f"{eb.q_lower_estimate:.4f})")

    print("\nsubdividing the domain tightens the remainder hull like 1/k:")
    provider = default_jac_provider([expr])
    for k in (1, 2, 4, 8, 16):
        _, _, hull = subdivide_apply(REMAINDER, [expr], provider, BOX, k)
        print(f"  k={k:2d}  hull {fmt(hull)}  gap {hausdorff_q(hull, oracle):.5f}")


if __name__ == "__main__":
    main()
