import pytest

import adamsops.eigen as eigen


@pytest.fixture
def fresh_spectrum_reports():
    """Empty `spectrum_check`'s memo of reports before and after the test, so
    that a test which patches what a report is made from neither reads a
    report kept before the patch nor leaves one made under it.  The fixture
    is the clearing function, for a test that patches again midway."""
    clear = eigen._spectrum_report.cache_clear
    clear()
    yield clear
    clear()
