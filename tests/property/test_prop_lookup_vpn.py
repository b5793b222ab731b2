"""Property tests for the shift-only page-table lookup.

``PageTable.lookup_vpn`` cuts the four level indices out of the page
number with shifts instead of walking through a ``VirtualAddress``; it
must find exactly the entry the byte-address ``walk`` finds, for mapped
pages and for their unmapped neighbours across every level boundary.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import AddressError
from repro.vm.page_table import PageTable

VPN_LIMIT = 1 << 36
vpns = st.integers(min_value=0, max_value=VPN_LIMIT - 1)
vpn_sets = st.sets(vpns, min_size=1, max_size=40)

LEVEL_SPANS = (1 << 9, 1 << 18, 1 << 27)
"""Pages covered by one PT, one PMD and one PUD table."""


def neighbours(vpn):
    """*vpn*'s adjacent pages and the pages either side of the PT, PMD
    and PUD boundaries around it."""
    out = {vpn - 1, vpn + 1}
    for span in LEVEL_SPANS:
        base = vpn - vpn % span
        out |= {base - 1, base, base + span - 1, base + span}
    return {v for v in out if 0 <= v < VPN_LIMIT}


@given(vpn_sets, st.lists(vpns, max_size=20))
def test_lookup_vpn_is_the_byte_address_walk(mapped, extra):
    table = PageTable()
    for vpn in mapped:
        table.ensure_vpn(vpn)
    probes = set(extra)
    for vpn in mapped:
        probes |= {vpn} | neighbours(vpn)
    for vpn in sorted(probes):
        walks = table.stats.walks
        found = table.lookup_vpn(vpn)
        assert table.stats.walks == walks + 1
        assert found is table.walk(vpn << 12)
        assert (found is not None) == (vpn in mapped)


@given(vpn_sets, st.one_of(st.integers(max_value=-1), st.integers(min_value=VPN_LIMIT)))
def test_out_of_range_vpn_raises(mapped, vpn):
    table = PageTable()
    for v in mapped:
        table.ensure_vpn(v)
    with pytest.raises(AddressError):
        table.lookup_vpn(vpn)
    # Counted like walk() counts it: the walk began, then was refused.
    assert table.stats.walks == 1
    with pytest.raises(AddressError):
        table.walk(vpn << 12)
