"""The witness groups: affine and projective groups over small fields, and
the Mathieu groups, with the transitivity properties that make them useful.
"""

import starcayley as sc

# finite fields with pinned reduction rules
f8 = sc.field(2, 3)
print("GF(8) modulus:", list(f8.modulus), " z*z*z =", f8.element_name(f8.pow(2, 3)))
f32 = sc.field(2, 5)
print("GF(32) modulus:", list(f32.modulus), " z^5 =", f32.element_name(f32.pow(2, 5)))

# projective-line groups
psl = sc.psl2(8)
print(f"\n{psl.name}: degree {psl.degree}, order {psl.order} (= 9*8*7)")
big = sc.pgammal2(32)
print(f"{big.name}: degree {big.degree}, order {big.order} (= 5*33*32*31)")

# sharply lambda-transitive: regular on ordered disjoint-subset tuples
print("\nPSL(2,8) sharply (5,3,1)-transitive:",
      sc.is_sharply_lambda_transitive(psl, (5, 3, 1)))
print("PGammaL(2,32) sharply (29,3,1)-transitive:",
      sc.is_sharply_lambda_transitive(big, (29, 3, 1)))
print("part order never matters:",
      sc.is_sharply_lambda_transitive(psl, (3, 5, 1)))

# homogeneous-but-not-transitive examples
print("\nPSL(2,8) 4-homogeneous:", sc.is_k_homogeneous(psl, 4),
      "/ 4-transitive:", sc.is_k_transitive(psl, 4))
print("AGL(1,8) order:", sc.agl1(8).order,
      " 3-homogeneous:", sc.is_k_homogeneous(sc.agl1(8), 3),
      "/ 3-transitive:", sc.is_k_transitive(sc.agl1(8), 3))

# the sharply 4- and 5-transitive sporadic groups
m11, m12 = sc.mathieu11(), sc.mathieu12()
print(f"\n{m11.name}: order {m11.order} = P(11,4), sharply 4-transitive:",
      sc.is_sharply_k_transitive(m11, 4))
print(f"{m12.name}: order {m12.order} = P(12,5), sharply 5-transitive:",
      sc.is_sharply_k_transitive(m12, 5))
