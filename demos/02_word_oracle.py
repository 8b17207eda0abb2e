"""The word oracle: three-valued equality with machine-checkable certificates.

EQUAL verdicts carry either a trivial reason (identical after free reduction),
an exact two-generator normal form, or a replayable chain of relator rewrites.
NOT_EQUAL verdicts carry a separating invariant.  When the budget runs out the
answer is UNKNOWN, never a guess.
"""

from artinfix import validate_graph, word_equal
from artinfix.oracle import canonical_form, is_fixed, member_of_parabolic, replay
from artinfix.words import format_word, inv, mul, parse_automorphism, parse_word

triangle = validate_graph([("a", "b", 3), ("a", "c", 3), ("b", "c", 3)])
edge4 = validate_graph([("a", "b", 4)])

print("aba vs bab (one braid relation):")
v = word_equal(triangle, parse_word("a b a"), parse_word("b a b"))
print("  ", v.status, "via", v.method)

print("\na vs b across an even edge (abelianization separates):")
v = word_equal(edge4, parse_word("a"), parse_word("b"))
print("  ", v.status, "via", v.method, v.certificate)

print("\na vs b across an odd edge with zero budget (normal form decides):")
v = word_equal(validate_graph([("a", "b", 3)]), parse_word("a"), parse_word("b"), budget=0)
print("  ", v.status, "via", v.method)

z = parse_word("a b c a b c")
print("\nthe hexagonal centre commutes with b (a rewrite certificate):")
u = mul(z, parse_word("b"), inv(z))
v = word_equal(triangle, u, parse_word("b"))
print("  ", v.status, "via", v.method, "- replays:", replay(triangle, v, u, parse_word("b")))

print("\ncanonical forms collapse two-generator syllables:")
w = parse_word("a a b a b- a- c")
print("  ", format_word(w), "->", format_word(canonical_form(triangle, w)))

print("\nabc vs acb (their images in the Coxeter group differ):")
v = word_equal(triangle, parse_word("a b c"), parse_word("a c b"))
print("  ", v.status, "via", v.method)

print("\nsquares die in the Coxeter group, so no invariant separates these:")
v = word_equal(triangle, parse_word("a^2 b^2 c^2"), parse_word("c^2 b^2 a^2"), budget=50)
print("  ", v.status, f"(honestly undecided after {v.expansions} expansions)")

print("\nfixedness is equality after applying the automorphism:")
gamma = parse_automorphism(triangle, "conj a ; invert")
loop = parse_word("c- a b- c a- b")
print("  conj_a iota fixes the hexagon loop:", is_fixed(gamma, loop).status)

print("\nbudgeted membership in a standard parabolic:")
r = member_of_parabolic(triangle, parse_word("a b a b- a-"), {"a", "b"})
print("  a b a b- a- in <a,b>:", r.status, "rewritten:", format_word(r.rewritten))
r = member_of_parabolic(triangle, parse_word("c"), {"a", "b"}, budget=50)
print("  c in <a,b>:", r.status, "via", r.certificate[0], "(its reflection is not in W_ab)")
