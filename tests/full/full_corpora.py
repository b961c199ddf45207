"""The tier-1 differential tests on the full corpora of this directory's
``conftest.py``. Run with ``python -m pytest -q tests/full/full_corpora.py``;
the name does not match ``test_*.py``, so the tier-1 run never collects it."""

# pytest runs these in this order. The JSON tests go first: W6R2's 130 MB
# dump is gone before the exhaustive results take their 0.45 GB.
from test_json_output import (
    test_check_json_is_the_encoders,
    test_dumped_entries_are_their_candidates,
    test_enumerate_json_is_the_encoders_and_streams_the_closed_form_count,
)
from test_acceptance import test_criterion_4_sc_arch_prop_is_co
from test_axioms import TestArchitectureAxioms as Axioms
from test_enumeration import (
    test_check_table_equals_the_exhaustive_table,
    test_choices_are_indexed_in_product_order,
    test_cli_tables_equal_allowed_outcomes_summaries,
    test_where_yields_the_matching_subsequence,
)
from test_execution import TestDerive as Derive


class TestDerive:
    test_one_pass_equals_the_definitions = Derive.test_one_pass_equals_the_definitions


class TestArchitectureAxioms:
    test_observation_equals_the_closure_definition = (
        Axioms.test_observation_equals_the_closure_definition
    )
