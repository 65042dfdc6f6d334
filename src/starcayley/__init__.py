"""starcayley: (n,k)-star graphs, Cayley certification, and the supporting
group-theoretic and number-theoretic verification battery."""

__version__ = "0.1.0"

# The default budgets and the error an exhausted element budget raises live
# here, so that the CLI can set its argparse defaults and report the error
# without importing the modules that enforce them.
DEFAULT_ELEMENT_CAP = 2_000_000
DEFAULT_VERTEX_CAP = 2_000_000


class CapExceeded(RuntimeError):
    """An enumeration grew past its element cap.

    Raised instead of silently truncating; callers that hit this should switch
    to a certificate-based argument rather than full enumeration.
    """


# Every re-export is imported on first use: each process pays for each module
# it imports, and no command needs all of them.  For the same reason every
# record in the package is a named tuple rather than a dataclass: importing
# dataclasses loads inspect, ast, dis and tokenize, about 10 ms of a process
# whose group work takes 5-10 ms.
_LAZY = {name: module for module, names in [
    ("perm", ("Flag", "Lambda", "Perm", "PermGroup",
              "canonical_flag", "closure", "flag_count", "flag_stabilizer",
              "is_k_homogeneous", "is_k_transitive", "is_sharply_k_transitive",
              "is_sharply_lambda_transitive")),
    ("pairs", ("AutPair", "PairGroup", "aut_product", "project_and_kernel",
               "symmetric_nu_group")),
    ("stargraph", ("EdgeKind", "StarGraph", "brute_force_automorphism_count",
                   "build", "edge_kind", "is_edge_in_triangle", "rank",
                   "residual_neighbors", "six_cycles_through", "star_neighbors",
                   "transposition_identity_check", "unrank")),
    ("gf", ("Field", "SemilinearMap", "field", "field_of_order")),
    ("verdicts", ("Certificate", "ClassificationResult", "build_certificate",
                  "classify", "is_prime_power", "table_certificate",
                  "verify_certificate")),
    ("cayley", ("certify_via_lambda", "sabidussi_direct")),
    ("search", ("search_regular_subgroup",)),
    ("numbers", ("numbers",)),
    ("witness_groups", ("agammal1", "agl", "agl1", "mathieu11", "mathieu12",
                        "pgammal2", "pgl2", "psl2")),
    ("case_elim", ("CaseFamily", "CaseRecord", "eliminate_case",
                   "pgammal_solution_scan")),
] for name in names}

__all__ = sorted([*_LAZY, "CapExceeded"])


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    loaded = import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)
