import dataclasses

import skolem
from skolem import construction, residues, search, starters

PUBLIC_NAMES = [
    "__version__",
    "MAX_MODULUS",
    "QrTable",
    "build_qr_table",
    "is_prime",
    "smallest_qr_generator",
    "PairSet",
    "VerificationReport",
    "full_report",
    "iter_pair_sets_text",
    "pair_set_from_obj",
    "pair_set_to_obj",
    "pair_set_to_text",
    "parse_pair_set_text",
    "skolem_admissible",
    "BetaChoice",
    "ConstructionError",
    "HalfSetCertificate",
    "build_strong_skolem",
    "build_strong_starter",
    "construction_primes",
    "enumerate_strong_skolem",
    "half_set_certificate",
    "DEFAULT_CEILING",
    "CeilingExceededError",
    "SearchConfig",
    "SearchMode",
    "SearchResult",
    "active_backend",
    "search_skolem_starters",
]


def test_public_api():
    # one name per job: the Modulus argument form, the environment ceiling
    # override and the PairSet format aliases are gone, and so are the
    # number theory the construction never calls, every verifier but
    # full_report, and the residue-class enum that only restated beta
    assert skolem.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(skolem, name) is not None, name
    for gone in (
        "Modulus",
        "effective_ceiling",
        "legendre_class",
        "mod_inverse",
        "is_qr_generator",
        "qr_generators",
        "ResidueClass",
    ):
        assert not hasattr(skolem, gone), gone
        assert not hasattr(skolem.residues, gone), gone
    for gone in (
        "verify_starter",
        "verify_strong",
        "verify_skolem",
        "Verdict",
        "NotAStarterError",
        "cross_validate_construction",
        "CrossValidation",
    ):
        assert not hasattr(skolem, gone), gone
        assert not hasattr(skolem.starters, gone), gone
        assert not hasattr(skolem.search, gone), gone
    fields = [f.name for f in dataclasses.fields(skolem.VerificationReport)]
    assert fields == [
        "starter_witness",
        "strong_witness",
        "skolem_witness",
        "has_zero_sum",
    ]
    fields = [f.name for f in dataclasses.fields(skolem.HalfSetCertificate)]
    assert fields == ["q", "beta", "direct", "reflected"]
    # a search result answers its SearchConfig and does not copy it
    fields = [f.name for f in dataclasses.fields(skolem.SearchResult)]
    assert fields == [
        "count",
        "nodes_explored",
        "witnesses",
        "complete",
        "wall_time",
        "backend",
        "workers",
    ]
    assert not hasattr(skolem.residues, "as_modulus")
    assert not hasattr(skolem.QrTable, "class_of")
    assert not hasattr(skolem.search, "CEILING_ENV")
    assert not hasattr(skolem.PairSet, "to_text")
    assert not hasattr(skolem.PairSet, "to_obj")


def test_each_module_lists_its_own_public_names():
    # the package exports each module's __all__, in order, and nothing else
    assert skolem.__all__ == [
        "__version__",
        *residues.__all__,
        *starters.__all__,
        *construction.__all__,
        *search.__all__,
    ]
    # each name is defined in the module that lists it, not imported there:
    # a class or function by its __module__, the two constants as attributes
    constants = []
    for module in (residues, starters, construction, search):
        for name in module.__all__:
            value = vars(module)[name]
            if isinstance(value, int):
                constants.append(name)
            else:
                assert value.__module__ == module.__name__, name
    assert constants == ["MAX_MODULUS", "DEFAULT_CEILING"]
