"""
The greedy character peeling algorithm, step by step
====================================================

A finite-dimensional module is pinned down by its character, the map
from weights to weight-space dimensions.  To decompose the module, sweep
its weights once in descending lexicographic order.  A weight that
dominates another is lexicographically greater, so when the sweep
reaches a weight, every irreducible above it has already been peeled off
and what is left there is the multiplicity of the irreducible with that
highest weight: subtract that many copies of its character and move on.
"""

from symcube import character_irrep, character_symmetric_power, greedy_decompose
from symcube.verify import check_characters

# Watch the sweep decompose S^3 by hand.
character = character_symmetric_power(3)
remainder = dict(character)
left = sum(character.values())
print("sweeping S^3 (dimension", left, "):")
for top in sorted(character, reverse=True):
    x = remainder[top]
    if x:
        for w in character_irrep(top):
            remainder[w] -= x
        n1, n2, n3 = top
        left -= x * (n1 + 1) * (n2 + 1) * (n3 + 1)
        print(f"  reach {top}: multiplicity {x}, {left} dims left")

# The library gets the same answer in one call without peeling: each
# multiplicity is the alternating sum of the character over the eight
# corners top + {0, 2}^3.
print("\ngreedy_decompose(ch S^3):", greedy_decompose(character))

# Both decomposition routes agree on every symmetric power: the eight-corner
# sums of the closed-form character and the count of covariant monomials.
check_characters(8)
print("greedy == covariant count for m <= 8")

# The same pass rejects inputs that are not module characters and names
# the fault: any module character has sign-symmetric weights, so a lone
# negative weight lacks its image (2, 0, 0).
try:
    greedy_decompose({(-2, 0, 0): 1})
except ValueError as exc:
    print("\nrejected invalid input:", exc)
