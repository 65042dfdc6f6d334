"""The exact-arithmetic battery behind the AGL(d,2) impossibility: 2-adic
valuations, a binomial index bound, and the primitive-divisor scan of the
sequence 2^d - 3 (one gcd with a folded Mersenne residue, no factorization).
"""

from starcayley import numbers

# if S_{2^d, 2^d-3} were Cayley through AGL(d,2), a complement of order t
# would have to exist
print("t for d=3:", numbers.required_kernel_order(3), "(does not divide 4!)")
for d in range(3, 8):
    print(f"  d={d}: t divides (2^d-4)! ?",
          numbers.kernel_order_divides_factorial(d))

# for d >= 8 two exact inequalities close the case unconditionally
case = numbers.AglCase(8)
print(f"\nd=8 parameters: n={case.n}, k={case.k}, r={case.r}")
print("index below binomial bound:", numbers.index_binomial_bound(8))
print("2-adic obstruction (> 0):", numbers.two_adic_obstruction(8))
print("   (the valuation is (r+2) - v2((r+2)!) =",
      (case.r + 2) - numbers.v2_factorial(case.r + 2), ")")

# 2-adic valuation utilities
print("\nv2(12) =", numbers.v2(12))
print("v2(28!) =", numbers.v2_factorial(28), " (Legendre: 14+7+3+1)")

# the primitive-divisor scan: strip the primes of 2^d - 3 that already divide
# an earlier term (found by one gcd) and see whether anything survives
for d in (4, 7, 8):
    print(f"2^{d}-3 = {(1 << d) - 3} has a primitive prime divisor:",
          numbers.has_primitive_divisor(d))

failing = numbers.zsigmondy_scan(1000)
print("\nexceptions up to 1000:", failing, "(2^7-3 = 125 = 5^3, and 5 | 2^3-3)")

# the related divisibility that would make the AGL case possible never holds
print("2^d-3 divides the Mersenne product, d=8..20:",
      [numbers.divides_mersenne_product(d) for d in range(8, 21)])
