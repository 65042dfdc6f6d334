"""The automorphism group of S_{n,k} is S_n x S_{k-1}, acting by

    [a1, ..., ak] -> [mu(a_{nu^-1(1)}), ..., mu(a_{nu^-1(k)})].

A blind backtracking count over plain adjacency (no edge kinds) confirms the
order n!(k-1)! on small instances.
"""

import starcayley as sc

# the pair action preserves adjacency and even the edge kind
g = sc.build(5, 3)
f = sc.AutPair(sc.Perm.from_cycles(5, (1, 4, 2)), sc.Perm.from_cycles(5, (2, 3)))
u, v = (1, 2, 3), (2, 1, 3)
print("f([1,2,3]) =", list(f.apply(u)))
print("edge kind preserved:",
      sc.edge_kind(u, v) is sc.edge_kind(f.apply(u), f.apply(v)))

# the full pair group has order n!(k-1)!
aut = sc.aut_product(5, 3)
print(f"\n|Aut(S_5,3)| as a pair group: {aut.order} = 5! * 2!")

# an oracle that knows nothing about edge kinds finds the same count
for n, k in [(4, 2), (5, 2), (5, 3)]:
    count = sc.brute_force_automorphism_count(sc.build(n, k))
    print(f"backtracking count for S_{n},{k}: {count}")

# every vertex is reachable from the base vertex [1..k]: pick mu to be any
# full permutation extending the target
base = (1, 2, 3)
target = (4, 1, 5)
mu = sc.Perm([4, 1, 5, 2, 3])
print("\nvertex transitivity:",
      sc.AutPair(mu, sc.Perm.identity(5)).apply(base) == target)

# through v=[1,2,3], the residual edge to [4,2,3] and the star edge to
# [2,1,3] lie on exactly one alternating 6-cycle
cycles = sc.six_cycles_through(g, (4, 2, 3), (1, 2, 3), (2, 1, 3))
print("\nthe unique alternating 6-cycle through the sample path:")
print("  " + " - ".join(str(list(x)) for x in cycles[0]))
