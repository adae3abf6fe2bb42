"""The backend run records name.

The baseline's one pass over the events is checked, with the sweep,
against ``covering_relation`` in ``test_equivalence_properties.py``,
``test_acceptance.py`` and ``test_golden.py``.
"""

from __future__ import annotations

from ubgraph import backend_name


def test_backend_name_reports_selection():
    assert backend_name() == "numpy"
