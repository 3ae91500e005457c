"""
Equilibrium investments for every move sequence of a three-player contest
==========================================================================

Walks through the solver: the backward polynomial recursion, the root that
pins down aggregate investment, and per-stage individual investments for the
four possible sequences (3), (1,2), (2,1), (1,1,1) with prize 240.
"""

from seqcontest import ContestSpec, MoveSequence, build_ladder, solve_spne

TREATMENTS = [(3,), (1, 2), (2, 1), (1, 1, 1)]


def poly_str(coeffs):
    """Render integer coefficients, ascending powers, as a polynomial in x."""
    terms = []
    for power, coef in enumerate(coeffs):
        if coef == 0:
            continue
        if power == 0:
            terms.append(f"{coef}")
        elif power == 1:
            terms.append(f"{coef}x")
        else:
            terms.append(f"{coef}x^{power}")
    return " + ".join(terms).replace("+ -", "- ") or "0"


# The recursion starts from the identity and applies one step per stage,
# so the final polynomial has one root characterizing aggregate investment.
print("Polynomial ladders")
for stages in TREATMENTS:
    ladder = build_ladder(MoveSequence(stages))
    chain = "  ->  ".join(poly_str(p) for p in reversed(ladder))
    print(f"  {MoveSequence(stages).label():8s} {chain}")

print()
print("Equilibrium investments (prize 240, no joy of winning)")
print(f"  {'sequence':10s} {'x per stage':30s} {'aggregate X':>12s}")
for stages in TREATMENTS:
    sol = solve_spne(ContestSpec(MoveSequence(stages)))
    per_stage = ", ".join(f"{x:.2f}" for x in sol.scaled_stage_investments)
    print(f"  {sol.sequence.label():10s} {per_stage:30s} {sol.scaled_aggregate:12.2f}")

# Two benchmark facts the solver reproduces: the aggregate rises with the
# number of stages, and with only two players sequencing changes nothing.
two_seq = solve_spne(ContestSpec(MoveSequence((1, 1))))
two_sim = solve_spne(ContestSpec(MoveSequence((2,))))
print()
print(
    f"two-player neutrality: X(1,1) = {two_seq.scaled_aggregate:.4f}, "
    f"X(2) = {two_sim.scaled_aggregate:.4f}"
)
