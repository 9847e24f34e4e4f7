"""The public names of the package."""

import gradedorders

PUBLIC_NAMES = [
    "Carrier", "DIVIDES", "EmptyFamilyError", "GE", "GT", "IncomparableError", "LE", "LT",
    "LengthMismatchError", "Monoid", "MultiIndexList", "NAT_ADD", "PolyParseError", "Relation",
    "SparsePoly", "Term", "VectorRelation", "WeightMatrix",
    "carrier_range", "colex", "complementary", "converse", "converse_rel", "degree_slice",
    "families", "family_add", "family_sum", "find_incomparable", "format_matrix", "format_poly",
    "format_term", "graded", "grcolex", "grcolex_rec", "grevlex", "grevlex_rec", "grlex",
    "grlex_rec", "grsymlex", "grsymlex_full_rec", "grsymlex_rec", "head", "init", "intersection",
    "is_antisymmetric", "is_asymmetric", "is_connected", "is_irreflexive",
    "is_monomial_nonstrict_order", "is_monomial_order", "is_negatively_transitive",
    "is_plus_compat_r", "is_plus_reg_r", "is_reflexive", "is_strict_total_order",
    "is_strict_weak_order", "is_strongly_connected", "is_total_order", "is_transitive",
    "is_trichotomous", "iter_multi_index_set", "iter_slice", "last", "leading_term", "lex",
    "load_matrix", "matrix_for", "monomial_mul", "multi_index", "multi_index_set", "or_eq",
    "or_eq_rel", "parse_matrix", "parse_poly", "poly", "prepend_ones_column", "relations",
    "reverse_family", "reverse_rel", "revlex", "sort_terms", "symlex", "tail", "union",
    "weighted", "weighted_lt", "weighted_relation", "zero_least_on_nonzero",
]


def test_public_names():
    assert len(PUBLIC_NAMES) == 88
    assert sorted(gradedorders.__all__) == PUBLIC_NAMES


def test_one_relation_type():
    assert gradedorders.VectorRelation is gradedorders.Relation
    assert gradedorders.converse_rel is gradedorders.converse
