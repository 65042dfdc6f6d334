"""Certifying Cayleyness: a subgroup of Aut(S_{n,k}) of order P(n,k) whose
action is free makes the graph a Cayley graph (Sabidussi's criterion).  Every
certificate records exactly which checks ran; checks can be re-run later from
the certificate JSON alone.
"""

import starcayley as sc

# S_11,4 is a Cayley graph of the Mathieu group M11
cert = sc.build_certificate(11, 4)
print("(11,4):", cert.verdict, "via", cert.method)
for name, ok in cert.checks:
    print(f"   {name}: {ok}")

# S_9,4 needs the product PSL(2,8) x S_3 to reach order P(9,4) = 3024
cert = sc.build_certificate(9, 4)
print("\n(9,4):", cert.verdict, "witness:", cert.witness["name"])

# S_33,30 has an astronomically large vertex set; the flag route certifies
# it without ever enumerating the acting group
cert = sc.build_certificate(33, 30)
print("\n(33,30):", cert.verdict, "via", cert.method)
for name, ok in cert.checks:
    print(f"   {name}: {ok}")

# a failed witness only ever yields Unknown, never NotCayley
from starcayley.pairs import PairGroup
bad = sc.sabidussi_direct(PairGroup.direct_product(sc.PermGroup.symmetric(4), 2), 4, 2)
print("\nwrong-order witness for (4,2):", bad.verdict)

# the machine-refutable no-cases at desk scale.  The search grows a group
# from the identity, each time by a candidate that maps the base vertex to
# the first vertex the group misses; a regular subgroup would lie on one of
# its branches, so an exhausted search refutes.
for n, k in [(6, 2), (7, 3), (7, 4), (8, 4)]:
    cert = sc.search_regular_subgroup(n, k)
    print(f"\n({n},{k}):", cert.verdict, "via", cert.method)
    for name, ok in cert.checks:
        print(f"   {name}: {ok}")

# certificates round-trip through JSON and re-verify bit for bit
text = sc.build_certificate(5, 2).to_json()
reloaded = sc.Certificate.from_json(text)
reproduced, _ = sc.verify_certificate(reloaded)
print("\n(5,2) certificate re-verified from JSON:", reproduced)
